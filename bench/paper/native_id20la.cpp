#include "bench/paper/native_id20la.h"

namespace micropnp {

#define ID20LA_BAUD 9600
#define ID20LA_FRAME_STX 0x02
#define ID20LA_FRAME_ETX 0x03
#define ID20LA_FRAME_CR 0x0d
#define ID20LA_FRAME_LF 0x0a
#define ID20LA_PAYLOAD_CHARS 12

static int id20la_hex_value(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  return -1;
}

int native_id20la_verify_checksum(const char* payload12) {
  uint8_t checksum = 0;
  int i;
  for (i = 0; i < 5; ++i) {
    int hi = id20la_hex_value(payload12[2 * i]);
    int lo = id20la_hex_value(payload12[2 * i + 1]);
    if (hi < 0 || lo < 0) {
      return 0;
    }
    checksum = (uint8_t)(checksum ^ (uint8_t)((hi << 4) | lo));
  }
  int chi = id20la_hex_value(payload12[10]);
  int clo = id20la_hex_value(payload12[11]);
  if (chi < 0 || clo < 0) {
    return 0;
  }
  return checksum == (uint8_t)((chi << 4) | clo);
}

void native_id20la_on_byte(NativeId20LaState* state, uint8_t byte) {
  if (state == 0 || state->listening == 0) {
    return;
  }
  // Ignore framing characters (STX, ETX, CR, LF) exactly as Listing 1 does.
  if (byte == ID20LA_FRAME_STX || byte == ID20LA_FRAME_ETX || byte == ID20LA_FRAME_CR ||
      byte == ID20LA_FRAME_LF) {
    return;
  }
  state->buffer[state->index++] = (char)byte;
  if (state->index < ID20LA_PAYLOAD_CHARS) {
    return;
  }
  // Frame complete: verify and publish.
  state->index = 0;
  int i;
  for (i = 0; i < ID20LA_PAYLOAD_CHARS; ++i) {
    state->last_card.payload[i] = state->buffer[i];
  }
  state->last_card.payload[ID20LA_PAYLOAD_CHARS] = '\0';
  state->last_card.valid = native_id20la_verify_checksum(state->last_card.payload);
  state->has_card = 1;
}

int native_id20la_init(NativeId20LaState* state, ChannelBus* bus) {
  if (state == 0 || bus == 0) {
    return ID20LA_ERR_NOT_INITIALIZED;
  }
  if (!bus->IsSelected(BusKind::kUart)) {
    return ID20LA_ERR_BAD_CONFIG;
  }
  UartConfig config;
  config.baud = ID20LA_BAUD;
  config.parity = UartParity::kNone;
  config.stop_bits = UartStopBits::kOne;
  config.data_bits = 8;
  Status status = bus->uart().Init(config);
  if (status.code() == StatusCode::kBusy) {
    return ID20LA_ERR_UART_IN_USE;
  }
  if (!status.ok()) {
    return ID20LA_ERR_BAD_CONFIG;
  }
  state->bus = bus;
  state->initialized = 1;
  state->listening = 0;
  state->index = 0;
  state->has_card = 0;
  return ID20LA_OK;
}

void native_id20la_destroy(NativeId20LaState* state) {
  if (state == 0) {
    return;
  }
  if (state->initialized != 0 && state->bus != 0) {
    state->bus->uart().Reset();
  }
  state->initialized = 0;
  state->listening = 0;
  state->bus = 0;
}

int native_id20la_start_read(NativeId20LaState* state) {
  if (state == 0 || state->initialized == 0) {
    return ID20LA_ERR_NOT_INITIALIZED;
  }
  state->listening = 1;
  state->index = 0;
  state->has_card = 0;
  // Install the RX interrupt handler.
  state->bus->uart().set_rx_handler(
      [state](uint8_t byte) { native_id20la_on_byte(state, byte); });
  return ID20LA_OK;
}

void native_id20la_stop_read(NativeId20LaState* state) {
  if (state == 0 || state->initialized == 0) {
    return;
  }
  state->listening = 0;
  state->bus->uart().set_rx_handler(nullptr);
}

int native_id20la_poll(NativeId20LaState* state, NativeId20LaCard* out_card) {
  if (state == 0 || state->initialized == 0) {
    return ID20LA_ERR_NOT_INITIALIZED;
  }
  if (state->has_card == 0) {
    return ID20LA_ERR_NO_CARD;
  }
  state->has_card = 0;
  if (state->last_card.valid == 0) {
    return ID20LA_ERR_CHECKSUM;
  }
  if (out_card != 0) {
    *out_card = state->last_card;
  }
  return ID20LA_OK;
}

}  // namespace micropnp
