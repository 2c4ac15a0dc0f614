#include "core/replay.hpp"

#include "support/fault.hpp"
#include "support/log.hpp"

namespace sekitei::core {

bool Replayer::replay(std::span<const ActionId> steps, bool from_init, ReplayMode mode) {
  // Fault point on the acceptance replays only (from_init == true, the
  // validation of a complete candidate plan): Fail mode reports a replay
  // failure — the search prunes the candidate and keeps going — while Throw
  // mode propagates to the caller's error path.
  if (from_init && SEKITEI_FAULT_POINT("replay.validate")) {
    return replay_.reject("injected fault at replay.validate");
  }
  if (replay_.run(steps, from_init, mode)) return true;
  // Trace-level because this is the RG's *normal* pruning mechanism, not an
  // anomaly; the level gate keeps the hot path at one load.
  SEKITEI_LOG_TRACE("core.replay", "tail pruned",
                    log::kv("action", cp_.describe(replay_.prune().action)),
                    log::kv("reason", replay_.failure()), log::kv("steps", steps.size()));
  return false;
}

}  // namespace sekitei::core
