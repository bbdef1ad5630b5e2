// Deployment: the top-level facade assembling a complete μPnP system.
//
// A Deployment owns the simulation clock, the physical environment, the
// network fabric (border router at the root of the RPL tree) and factories
// for Things, Clients, Managers and peripherals.  This is the public API the
// examples and benchmarks build on — the "five minutes to a working μPnP
// network" entry point.

#ifndef SRC_CORE_DEPLOYMENT_H_
#define SRC_CORE_DEPLOYMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/periph/bmp180.h"
#include "src/periph/environment.h"
#include "src/periph/hih4030.h"
#include "src/periph/id20la.h"
#include "src/periph/relay.h"
#include "src/periph/tmp36.h"
#include "src/proto/client.h"
#include "src/proto/manager.h"
#include "src/proto/thing.h"

namespace micropnp {

struct DeploymentConfig {
  uint64_t seed = 2015;  // EuroSys'15
  // Network prefix hosting the deployment (2001:db8::/48 as in Figure 10).
  std::string prefix = "2001:db8";
  LinkModel link;
};

class Deployment {
 public:
  explicit Deployment(const DeploymentConfig& config = DeploymentConfig{});

  Scheduler& scheduler() { return scheduler_; }
  Fabric& fabric() { return fabric_; }
  Environment& environment() { return environment_; }
  NetNode* root() { return root_; }

  // --- node factories --------------------------------------------------------
  // `parent == nullptr` attaches directly to the border router (one hop).
  // The manager's repository starts with the bundled drivers.
  MicroPnpManager& AddManager(const std::string& name = "manager", NetNode* parent = nullptr);
  MicroPnpThing& AddThing(const std::string& name, NetNode* parent = nullptr,
                          const ThingConfig& thing_config = ThingConfig{});
  MicroPnpClient& AddClient(const std::string& name, NetNode* parent = nullptr,
                            size_t max_in_flight = 64);
  // A bare relay node extending the tree (for multi-hop topologies).
  NetNode* AddRelayNode(const std::string& name, NetNode* parent = nullptr);

  // --- peripheral factories (owned by the deployment) -------------------------
  Tmp36& MakeTmp36();
  Hih4030& MakeHih4030();
  Id20La& MakeId20La();
  Bmp180& MakeBmp180();
  Relay& MakeRelay();

  // --- simulation control ------------------------------------------------------
  // Advances simulated time by `ms`.
  void RunForMillis(double ms) {
    scheduler_.RunUntil(scheduler_.now() + SimTime::FromMillis(ms));
  }
  // Runs until no events remain.
  void RunUntilIdle() { scheduler_.Run(); }
  double NowMillis() const { return scheduler_.now().millis(); }

  // Verify-once decoded-image store shared by every Thing: a fleet running
  // one driver type verifies and decodes its image once.
  const DecodeCache& decode_cache() const { return decode_cache_; }

 private:
  Ip6Address NextUnicastAddress();

  DeploymentConfig config_;
  Scheduler scheduler_;
  Rng rng_;
  Environment environment_;
  DecodeCache decode_cache_;
  Fabric fabric_;
  NetNode* root_;
  // 32-bit so 100k-node fleets still get unique addresses (the host part
  // spans address groups 6 and 7).
  uint32_t next_host_ = 1;
  std::vector<std::unique_ptr<MicroPnpThing>> things_;
  std::vector<std::unique_ptr<MicroPnpClient>> clients_;
  std::vector<std::unique_ptr<MicroPnpManager>> managers_;
  std::vector<std::unique_ptr<Peripheral>> peripherals_;
};

}  // namespace micropnp

#endif  // SRC_CORE_DEPLOYMENT_H_
