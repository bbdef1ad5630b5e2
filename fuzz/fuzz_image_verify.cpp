// Fuzz target: the driver-image deploy pipeline on arbitrary bytes.
// DriverImage::Parse handles the wire format; DecodedImage::Decode runs
// structural verification plus the abstract interpreter
// (src/rt/abstract_interp.h).  A Thing feeds reassembled chunk uploads
// straight into this path, so "reject, never crash" is a safety property.
//
// Every image the deploy gate accepts then runs: each handler is dispatched
// once through Vm::Dispatch, which trusts the verifier for stack depth and
// static slots, so an accepted image that steps outside them is caught here
// (under ASan in the fuzz-smoke job).
//
// Built two ways (see fuzz/standalone_main.h): a libFuzzer binary under
// clang -DMICROPNP_FUZZ_LIBFUZZER, a corpus replayer otherwise.

#include <cstdint>
#include <memory>

#include "src/common/bytes.h"
#include "src/dsl/driver_image.h"
#include "src/rt/decoded_image.h"
#include "src/rt/vm.h"

namespace {

// Handler arguments come from the input itself, read backwards from its end
// four bytes at a time, so the fuzzer steers the values a handler sees.
int32_t ArgumentFromInput(const uint8_t* data, size_t size, size_t index) {
  uint32_t value = 0;
  for (size_t b = 0; b < 4; ++b) {
    value = (value << 8) | data[size - 1 - (index * 4 + b) % size];
  }
  return static_cast<int32_t>(value);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using micropnp::DecodedImage;
  using micropnp::DriverImage;
  micropnp::Result<DriverImage> image = DriverImage::Parse(micropnp::ByteSpan(data, size));
  if (!image.ok()) {
    return 0;
  }
  micropnp::Result<std::shared_ptr<const DecodedImage>> decoded =
      DecodedImage::DecodeShared(*image);
  if (!decoded.ok()) {
    return 0;
  }
  micropnp::Vm vm(*decoded);
  size_t next_arg = 0;
  for (const micropnp::DecodedHandler& handler : (*decoded)->handlers()) {
    micropnp::Event event;
    event.id = handler.event;
    event.argc = handler.argc;
    for (int32_t& arg : event.args) {
      arg = ArgumentFromInput(data, size, next_arg++);
    }
    (void)vm.Dispatch(event, nullptr);
  }
  return 0;
}

#ifndef MICROPNP_FUZZ_LIBFUZZER
#include "fuzz/standalone_main.h"
#endif
