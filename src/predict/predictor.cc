#include "predict/predictor.hh"

#include "common/config.hh"
#include "common/logging.hh"
#include "core/sp_predictor.hh"
#include "predict/group_predictor.hh"

namespace spp {

std::unique_ptr<DestinationPredictor>
makePredictor(const Config &cfg)
{
    if (cfg.protocol != Protocol::predicted &&
        cfg.protocol != Protocol::multicast)
        return nullptr;
    switch (cfg.predictor) {
      case PredictorKind::sp:
        return std::make_unique<SpPredictor>(cfg, cfg.numCores);
      case PredictorKind::addr:
        return std::make_unique<GroupPredictor>(cfg, cfg.numCores,
                                                GroupIndex::macroBlock);
      case PredictorKind::inst:
        return std::make_unique<GroupPredictor>(cfg, cfg.numCores,
                                                GroupIndex::instruction);
      case PredictorKind::uni:
        return std::make_unique<GroupPredictor>(cfg, cfg.numCores,
                                                GroupIndex::none);
      case PredictorKind::none:
        break;
    }
    SPP_FATAL("Protocol::{} requires a predictor kind",
              toString(cfg.protocol));
}

} // namespace spp
