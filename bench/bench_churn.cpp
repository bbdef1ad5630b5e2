// A5: peripheral churn under loss — what the resume machinery buys.
//
// A small fleet of Things keeps plugging, unplugging and re-plugging
// peripherals over a lossy multi-hop fabric.  Every re-plug issues a fresh
// driver request (4), but the Thing's transfer cache survives the unplug, so
// the request carries a resume bitmap: a re-plug with a complete cached
// image costs zero chunks (the manager short-circuits with an up-to-date
// offer), and an interrupted transfer resumes from its gaps instead of
// restarting.  The run reports how much image traffic that saves.
//
// After each settle window every Thing's channel 0 must have a driver host
// exactly when its plug flow is ready; the run exits nonzero, naming the
// Thing on stderr, when one does not.

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/deployment.h"

namespace micropnp {
namespace {

struct ChurnStats {
  int plugs = 0;
  int settled = 0;  // plug flows that ended with an active driver host
  int inconsistent = 0;  // channels whose driver host disagrees with their phase
};

int Run() {
  std::printf("=== A5: plug/unplug churn under loss (resume machinery) ===\n\n");

  DeploymentConfig config;
  config.seed = 52015;
  config.link.loss_rate = 0.10;
  Deployment deployment(config);
  MicroPnpManager& manager = deployment.AddManager();

  // Six Things at one to three hops from the border router.
  std::vector<MicroPnpThing*> things;
  NetNode* relay1 = deployment.AddRelayNode("relay-1");
  NetNode* relay2 = deployment.AddRelayNode("relay-2", relay1);
  for (int i = 0; i < 6; ++i) {
    NetNode* parent = (i % 3 == 0) ? nullptr : (i % 3 == 1) ? relay1 : relay2;
    things.push_back(&deployment.AddThing("thing-" + std::to_string(i), parent));
  }
  std::vector<Peripheral*> sensors;
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      sensors.push_back(&deployment.MakeTmp36());
    } else {
      sensors.push_back(&deployment.MakeBmp180());
    }
  }

  ChurnStats stats;
  auto settle_and_count = [&](double window_ms) {
    deployment.RunForMillis(window_ms);
    for (MicroPnpThing* thing : things) {
      const bool hosted = thing->drivers().HostForChannel(0) != nullptr;
      const ChannelPhase phase = thing->phase(0);
      if (hosted != (phase == ChannelPhase::kReady)) {
        std::fprintf(stderr, "%s: channel 0 in phase %d %s a driver host\n",
                     thing->node().name().c_str(), static_cast<int>(phase),
                     hosted ? "has" : "lacks");
        ++stats.inconsistent;
      }
      if (hosted) {
        ++stats.settled;
      }
    }
  };

  // Round 0: cold start — every driver image crosses the network chunked.
  for (size_t i = 0; i < things.size(); ++i) {
    ++stats.plugs;
    (void)things[i]->Plug(0, sensors[i]);
  }
  settle_and_count(20'000);
  const uint64_t cold_chunks = manager.chunks_sent();
  std::printf("cold start:    %llu chunks over the air (%llu retransmitted)\n",
              static_cast<unsigned long long>(cold_chunks),
              static_cast<unsigned long long>(manager.chunk_retransmissions()));

  // Rounds 1..4: churn.  Each round unplugs every Thing, removes the
  // installed image on half of them (forcing a fresh (4) on re-plug — but
  // the chunk cache still answers it), then re-plugs.
  for (int round = 1; round <= 4; ++round) {
    for (size_t i = 0; i < things.size(); ++i) {
      (void)things[i]->Unplug(0);
    }
    deployment.RunForMillis(2000);
    for (size_t i = 0; i < things.size(); ++i) {
      if ((static_cast<int>(i) + round) % 2 == 0) {
        DeviceTypeId type = (i % 2 == 0) ? kTmp36TypeId : kBmp180TypeId;
        (void)things[i]->drivers().RemoveImage(type);
      }
      ++stats.plugs;
      (void)things[i]->Plug(0, sensors[i]);
    }
    settle_and_count(20'000);
  }

  const uint64_t churn_chunks = manager.chunks_sent() - cold_chunks;
  uint64_t transfers = 0;
  uint64_t nacks = 0;
  uint64_t readverts = 0;
  for (MicroPnpThing* thing : things) {
    transfers += thing->transfers_completed();
    nacks += thing->chunk_nacks_sent();
    readverts += thing->readvertisements_sent();
  }

  std::printf("churn rounds:  %llu chunks over the air for %d re-plugs\n",
              static_cast<unsigned long long>(churn_chunks), stats.plugs - 6);
  std::printf("\n%28s %10d\n", "plug events", stats.plugs);
  std::printf("%28s %10d\n", "flows settled (driver live)", stats.settled);
  std::printf("%28s %10llu\n", "uploads served (4)",
              static_cast<unsigned long long>(manager.uploads()));
  std::printf("%28s %10llu\n", "up-to-date short circuits",
              static_cast<unsigned long long>(manager.upload_short_circuits()));
  std::printf("%28s %10llu\n", "resumed from bitmap",
              static_cast<unsigned long long>(manager.resumed_uploads()));
  std::printf("%28s %10llu\n", "chunks sent",
              static_cast<unsigned long long>(manager.chunks_sent()));
  std::printf("%28s %10llu\n", "chunk retransmissions",
              static_cast<unsigned long long>(manager.chunk_retransmissions()));
  std::printf("%28s %10llu\n", "chunk NACKs (20)", static_cast<unsigned long long>(nacks));
  std::printf("%28s %10llu\n", "transfers completed",
              static_cast<unsigned long long>(transfers));
  std::printf("%28s %10llu\n", "trickle re-advertisements",
              static_cast<unsigned long long>(readverts));

  std::printf("\n-> a re-plug whose cached image still matches the repository transfers\n");
  std::printf("   zero chunks (the (18) offer answers \"up to date\"), so sustained churn\n");
  std::printf("   costs advertisement and offer traffic only — the image crosses the\n");
  std::printf("   lossy fabric once per Thing, not once per plug.\n");
  return stats.inconsistent == 0 ? 0 : 1;
}

}  // namespace
}  // namespace micropnp

int main() { return micropnp::Run(); }
