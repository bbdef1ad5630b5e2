// Native (platform-specific, C-style) ID-20LA RFID reader driver — the
// Table 3 comparator for Listing 1.
//
// The native variant owns UART configuration, the interrupt-style byte
// handler, frame assembly, checksum verification and timeout bookkeeping —
// all the platform concerns the DSL runtime absorbs.

#ifndef BENCH_PAPER_NATIVE_ID20LA_H_
#define BENCH_PAPER_NATIVE_ID20LA_H_

#include <cstdint>

#include "src/bus/channel_bus.h"
#include "src/common/status.h"

namespace micropnp {

enum NativeId20LaError {
  ID20LA_OK = 0,
  ID20LA_ERR_NOT_INITIALIZED = -1,
  ID20LA_ERR_UART_IN_USE = -2,
  ID20LA_ERR_BAD_CONFIG = -3,
  ID20LA_ERR_NO_CARD = -4,
  ID20LA_ERR_CHECKSUM = -5,
};

// One assembled 12-character payload (10 data + 2 checksum chars).
struct NativeId20LaCard {
  char payload[13];  // NUL-terminated
  int valid;
};

struct NativeId20LaState {
  ChannelBus* bus;
  int initialized;
  int listening;
  uint8_t index;
  char buffer[12];
  NativeId20LaCard last_card;
  int has_card;
};

int native_id20la_init(NativeId20LaState* state, ChannelBus* bus);
void native_id20la_destroy(NativeId20LaState* state);

// Arms reception; bytes arrive through the RX interrupt handler.
int native_id20la_start_read(NativeId20LaState* state);
void native_id20la_stop_read(NativeId20LaState* state);

// Polls for a completed, checksum-verified card read.
int native_id20la_poll(NativeId20LaState* state, NativeId20LaCard* out_card);

// Exposed for unit tests: the RX byte handler and checksum routine.
void native_id20la_on_byte(NativeId20LaState* state, uint8_t byte);
int native_id20la_verify_checksum(const char* payload12);

}  // namespace micropnp

#endif  // BENCH_PAPER_NATIVE_ID20LA_H_
