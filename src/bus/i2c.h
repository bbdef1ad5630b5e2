// I2C interconnect model.
//
// A two-wire addressed bus: multiple devices share SDA/SCL, each with a 7-bit
// address.  Transactions are master-initiated writes, reads, or combined
// write-then-read (repeated start) — the shape the BMP180 driver needs for
// register access.  Transaction durations follow the configured clock rate
// (9 bits per byte on the wire: 8 data + ACK).

#ifndef SRC_BUS_I2C_H_
#define SRC_BUS_I2C_H_

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/sim/clock.h"
#include "src/sim/scheduler.h"

namespace micropnp {

// Device-side interface: a slave reacts to master writes and serves reads.
class I2cDevice {
 public:
  virtual ~I2cDevice() = default;
  virtual uint8_t address() const = 0;
  // Master wrote `data` to this device.  Returning non-OK models a NACK.
  virtual Status OnWrite(ByteSpan data, SimTime now) = 0;
  // Master reads `count` bytes.
  virtual Result<std::vector<uint8_t>> OnRead(size_t count, SimTime now) = 0;
};

struct I2cConfig {
  uint32_t clock_hz = 100'000;  // standard mode
};

class I2cPort {
 public:
  explicit I2cPort(Scheduler& scheduler) : scheduler_(scheduler) {}

  void Configure(const I2cConfig& config) { config_ = config; }
  const I2cConfig& config() const { return config_; }

  // Attaches a slave.  Fails on address collision (two devices would fight
  // over the bus).
  Status Attach(I2cDevice* device);
  Status Detach(I2cDevice* device);

  // Master transactions.  Addressing an absent device reports kUnavailable —
  // the electrical reality of an unacknowledged address byte.
  Status Write(uint8_t address, ByteSpan data);
  Result<std::vector<uint8_t>> Read(uint8_t address, size_t count);
  Result<std::vector<uint8_t>> WriteRead(uint8_t address, ByteSpan write_data, size_t read_count);

  // Wire time for a transaction moving `bytes` payload bytes (+1 address
  // byte per start condition, 9 bits per byte).
  SimDuration TransactionTime(size_t bytes, int starts = 1) const;

  uint64_t transactions() const { return transactions_; }

 private:
  I2cDevice* FindDevice(uint8_t address);

  Scheduler& scheduler_;
  I2cConfig config_;
  std::vector<I2cDevice*> devices_;
  uint64_t transactions_ = 0;
};

}  // namespace micropnp

#endif  // SRC_BUS_I2C_H_
