#include "src/model/device_model.h"

#include <algorithm>
#include <cstdio>

#include "src/core/driver_sources.h"
#include "src/dsl/parser.h"

namespace micropnp {

namespace {

bool IsCommandEvent(EventId id) { return id >= kEventCustomBase && !IsErrorEvent(id); }

// Name for a command whose handler name is unknown (facets expansion).
std::string SyntheticCommandName(EventId event) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "cmd_0x%02x", event);
  return std::string(buf);
}

}  // namespace

Result<DeviceModel> DeriveModelFromSource(const std::string& dsl_source,
                                          const std::string& name) {
  Result<DriverAst> ast = ParseDriver(dsl_source);
  if (!ast.ok()) {
    return ast.status();
  }
  DeviceModel model;
  model.device_id = ast->device_id;
  model.name = name.empty() ? FormatDeviceTypeId(ast->device_id) : name;
  model.source = ModelSource::kDslSource;
  // Custom event ids are allocated by the compiler in declaration order from
  // kEventCustomBase; mirroring that here gives each command the event id
  // the compiled image handles it under, and keeps `commands` in event order.
  EventId next_custom = kEventCustomBase;
  for (const Handler& handler : ast->handlers) {
    if (handler.is_error) {
      continue;
    }
    const std::optional<EventId> well_known = WellKnownEventId(handler.name);
    if (!well_known.has_value()) {
      ModelCommand command;
      command.name = handler.name;
      command.event = next_custom++;
      command.argc = static_cast<uint8_t>(handler.params.size());
      model.commands.push_back(std::move(command));
      continue;
    }
    model.readable = model.readable || *well_known == kEventRead;
    model.writable = model.writable || *well_known == kEventWrite;
  }
  return model;
}

// --- facets ------------------------------------------------------------------

uint16_t ModelFacets::Encode() const {
  uint16_t wire = 0;
  if (readable) {
    wire |= kModelFacetReadable;
  }
  if (writable) {
    wire |= kModelFacetWritable;
  }
  wire |= static_cast<uint16_t>(command_count) << 8;
  return wire;
}

ModelFacets ModelFacets::Decode(uint16_t wire) {
  ModelFacets facets;
  facets.readable = (wire & kModelFacetReadable) != 0;
  facets.writable = (wire & kModelFacetWritable) != 0;
  facets.command_count = static_cast<uint8_t>(wire >> 8);
  return facets;
}

ModelFacets FacetsOf(const DeviceModel& model) {
  ModelFacets facets;
  facets.readable = model.readable;
  facets.writable = model.writable;
  facets.command_count = static_cast<uint8_t>(std::min<size_t>(model.commands.size(), 255));
  return facets;
}

ModelFacets FacetsFromHandledEvents(std::span<const EventId> events) {
  ModelFacets facets;
  size_t commands = 0;
  for (const EventId event : events) {
    facets.readable = facets.readable || event == kEventRead;
    facets.writable = facets.writable || event == kEventWrite;
    if (IsCommandEvent(event)) {
      ++commands;
    }
  }
  facets.command_count = static_cast<uint8_t>(std::min<size_t>(commands, 255));
  return facets;
}

DeviceModel ModelFromFacets(DeviceTypeId device_id, const ModelFacets& facets) {
  DeviceModel model;
  model.device_id = device_id;
  model.name = FormatDeviceTypeId(device_id);
  model.source = ModelSource::kAdvertisement;
  model.readable = facets.readable;
  model.writable = facets.writable;
  for (uint8_t i = 0; i < facets.command_count; ++i) {
    ModelCommand command;
    command.event = static_cast<EventId>(kEventCustomBase + i);
    command.name = SyntheticCommandName(command.event);
    model.commands.push_back(std::move(command));
  }
  return model;
}

bool FindFacetsTlv(const TlvList& info, ModelFacets* out) {
  const Tlv* tlv = info.Find(TlvType::kModelFacets);
  if (tlv == nullptr) {
    return false;
  }
  const std::optional<uint16_t> wire = tlv->AsU16();
  if (!wire.has_value()) {
    return false;
  }
  *out = ModelFacets::Decode(*wire);
  return true;
}

// --- catalog -----------------------------------------------------------------

ModelCatalog ModelCatalog::BuiltIn() {
  ModelCatalog catalog;
  for (const BundledDriver& driver : BundledDrivers()) {
    Result<DeviceModel> model = DeriveModelFromSource(driver.source, driver.name);
    if (model.ok()) {
      catalog.Register(*std::move(model));
    }
  }
  return catalog;
}

void ModelCatalog::Register(DeviceModel model) {
  const DeviceTypeId id = model.device_id;
  models_.insert_or_assign(id, std::move(model));
}

const DeviceModel* ModelCatalog::Find(DeviceTypeId device_id) const {
  auto it = models_.find(device_id);
  return it == models_.end() ? nullptr : &it->second;
}

}  // namespace micropnp
