#include "src/core/deployment.h"

namespace micropnp {

Deployment::Deployment(const DeploymentConfig& config)
    : config_(config),
      rng_(config.seed),
      fabric_(scheduler_, config.seed ^ 0x6e657477ull, config.link) {
  root_ = fabric_.CreateNode("border-router", NextUnicastAddress(), NodeProfile::Server(),
                             /*parent=*/nullptr);
}

Ip6Address Deployment::NextUnicastAddress() {
  std::optional<Ip6Address> base = Ip6Address::Parse(config_.prefix + "::");
  Ip6Address addr = base.value_or(Ip6Address());
  addr.set_group(6, static_cast<uint16_t>(next_host_ >> 16));
  addr.set_group(7, static_cast<uint16_t>(next_host_));
  ++next_host_;
  return addr;
}

MicroPnpManager& Deployment::AddManager(const std::string& name, NetNode* parent) {
  NetNode* node = fabric_.CreateNode(name, NextUnicastAddress(), NodeProfile::Server(),
                                     parent != nullptr ? parent : root_);
  managers_.push_back(std::make_unique<MicroPnpManager>(scheduler_, node));
  Status preloaded = managers_.back()->PreloadBundledDrivers();
  (void)preloaded;
  return *managers_.back();
}

MicroPnpThing& Deployment::AddThing(const std::string& name, NetNode* parent,
                                    const ThingConfig& thing_config) {
  NetNode* node = fabric_.CreateNode(name, NextUnicastAddress(), NodeProfile::Embedded(),
                                     parent != nullptr ? parent : root_);
  things_.push_back(std::make_unique<MicroPnpThing>(
      scheduler_, node, rng_.NextU64(), decode_cache_, thing_config));
  return *things_.back();
}

MicroPnpClient& Deployment::AddClient(const std::string& name, NetNode* parent,
                                      size_t max_in_flight) {
  NetNode* node = fabric_.CreateNode(name, NextUnicastAddress(), NodeProfile::Server(),
                                     parent != nullptr ? parent : root_);
  clients_.push_back(std::make_unique<MicroPnpClient>(scheduler_, node, max_in_flight));
  return *clients_.back();
}

NetNode* Deployment::AddRelayNode(const std::string& name, NetNode* parent) {
  return fabric_.CreateNode(name, NextUnicastAddress(), NodeProfile::Embedded(),
                            parent != nullptr ? parent : root_);
}

Tmp36& Deployment::MakeTmp36() {
  peripherals_.push_back(std::make_unique<Tmp36>(environment_));
  return static_cast<Tmp36&>(*peripherals_.back());
}

Hih4030& Deployment::MakeHih4030() {
  peripherals_.push_back(std::make_unique<Hih4030>(environment_));
  return static_cast<Hih4030&>(*peripherals_.back());
}

Id20La& Deployment::MakeId20La() {
  peripherals_.push_back(std::make_unique<Id20La>());
  return static_cast<Id20La&>(*peripherals_.back());
}

Bmp180& Deployment::MakeBmp180() {
  peripherals_.push_back(std::make_unique<Bmp180>(environment_));
  return static_cast<Bmp180&>(*peripherals_.back());
}

Relay& Deployment::MakeRelay() {
  peripherals_.push_back(std::make_unique<Relay>());
  return static_cast<Relay&>(*peripherals_.back());
}

}  // namespace micropnp
