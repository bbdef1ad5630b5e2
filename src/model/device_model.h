// Typed device models for the northbound gateway tier.
//
// μPnP solves the southbound half of plug-and-play: a peripheral is
// identified, its driver installed, and its values readable one transaction
// at a time.  The model layer is the production tier above that: every
// discovered peripheral gets a typed DeviceModel (is its value readable,
// writable, streamable; which driver-private commands it has), derived
// automatically from one of two inputs:
//
//  * a DSL driver source (the built-in catalog: handler names and arities
//    from the AST), or
//  * the model-facets TLV a Thing advertises (kModelFacets, emitted from the
//    installed image's handled events; lets a gateway model Things whose
//    driver it has never seen).
//
// Derivation rules (docs/MODEL.md):
//  * a `read` handler   -> readable, and streamable (the Thing's stream path
//                          (12)..(15) serves any readable peripheral
//                          periodically);
//  * a `write` handler  -> writable;
//  * driver-private handlers (event id in [0x40, 0x80)) -> commands
//    (descriptive metadata; the wire protocol cannot invoke them remotely);
//  * error handlers and lifecycle/bus-internal events (init, destroy,
//    newdata, tick) are runtime plumbing, never model surface.

#ifndef SRC_MODEL_DEVICE_MODEL_H_
#define SRC_MODEL_DEVICE_MODEL_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/tlv.h"
#include "src/common/types.h"
#include "src/dsl/events.h"

namespace micropnp {

// Where a model's metadata came from.
enum class ModelSource : uint8_t {
  kDslSource = 0,      // parsed driver AST: names + arities
  kAdvertisement = 1,  // kModelFacets TLV from a live advertisement
};

// A driver-private handler, surfaced as descriptive metadata ("this driver
// has a `measure` step") — the interaction protocol has no remote-invoke
// message for custom events.
struct ModelCommand {
  std::string name;
  EventId event = 0;
  uint8_t argc = 0;

  bool operator==(const ModelCommand&) const = default;
};

struct DeviceModel {
  DeviceTypeId device_id = 0;
  std::string name;  // friendly name when known ("TMP36"), else hex id
  ModelSource source = ModelSource::kDslSource;
  // The one value a μPnP peripheral exposes: served by (10)/(11) reads when
  // readable, by (16)/(17) writes when writable.
  bool readable = false;
  bool writable = false;
  std::vector<ModelCommand> commands;

  // The stream path (12)..(15) serves any readable peripheral.
  bool streamable() const { return readable; }

  bool operator==(const DeviceModel&) const = default;
};

// --- derivation --------------------------------------------------------------

// From DSL source: parses the driver and derives the model with real handler
// names and arities.  `name` labels the model ("" falls back to the hex id).
Result<DeviceModel> DeriveModelFromSource(const std::string& dsl_source,
                                          const std::string& name = "");

// --- model facets: the compact wire form -------------------------------------
// What a Thing can advertise about an installed driver in one u16 TLV
// (TlvType::kModelFacets): low byte = capability flags, high byte = custom
// command count.  Enough for a gateway to build a usable (if nameless)
// model for a driver it has never seen.

inline constexpr uint16_t kModelFacetReadable = 0x0001;
inline constexpr uint16_t kModelFacetWritable = 0x0002;

struct ModelFacets {
  bool readable = false;
  bool writable = false;
  uint8_t command_count = 0;

  uint16_t Encode() const;
  static ModelFacets Decode(uint16_t wire);

  bool operator==(const ModelFacets&) const = default;
};

ModelFacets FacetsOf(const DeviceModel& model);
// From the runtime's metadata export (DriverManager::HandledEventsFor).
ModelFacets FacetsFromHandledEvents(std::span<const EventId> events);
// Expands a facets TLV back into a (nameless) model.
DeviceModel ModelFromFacets(DeviceTypeId device_id, const ModelFacets& facets);
// Facets TLV from an advertisement's info list; false when absent/malformed.
bool FindFacetsTlv(const TlvList& info, ModelFacets* out);

// --- catalog -----------------------------------------------------------------

// DeviceTypeId -> DeviceModel registry.  BuiltIn() derives a model for every
// bundled DSL driver, so the gateway can type the whole reproduction fleet
// offline.
class ModelCatalog {
 public:
  static ModelCatalog BuiltIn();

  // Inserts or replaces.
  void Register(DeviceModel model);
  const DeviceModel* Find(DeviceTypeId device_id) const;
  size_t size() const { return models_.size(); }
  const std::map<DeviceTypeId, DeviceModel>& models() const { return models_; }

 private:
  std::map<DeviceTypeId, DeviceModel> models_;
};

}  // namespace micropnp

#endif  // SRC_MODEL_DEVICE_MODEL_H_
