/**
 * @file
 * Destination-set predictor interface.
 *
 * Implementations: SpPredictor (src/core, the paper's contribution)
 * and the Martin-style "group" baselines ADDR / INST / UNI
 * (src/predict). The coherence engine is predictor-agnostic: it asks
 * for a destination set on each L2 miss and feeds back training
 * events.
 */

#ifndef SPP_PREDICT_PREDICTOR_HH
#define SPP_PREDICT_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/core_set.hh"
#include "common/types.hh"

namespace spp {

struct Config;

/**
 * What knowledge produced a prediction; drives the Figure 7 accuracy
 * breakdown.
 */
enum class PredSource : std::uint8_t
{
    none,       ///< No prediction made.
    warmup,     ///< d=0: hot set extracted mid-epoch after warm-up.
    history,    ///< d>=1: signature(s) from past epoch instances.
    pattern,    ///< Stride-repetitive signature detected.
    lock,       ///< Last lock holder(s) signature.
    recovery,   ///< Confidence-triggered mid-epoch re-extraction.
    table,      ///< ADDR/INST/UNI table lookup.
};

const char *toString(PredSource s);

/** Per-miss prediction query. */
struct PredictionQuery
{
    CoreId core = invalidCore;  ///< Requesting core.
    Addr line = 0;              ///< Line-aligned address.
    Addr macroBlock = 0;        ///< ADDR predictor index.
    Pc pc = 0;                  ///< Static instruction of the miss.
    bool isWrite = false;
};

/** Prediction result. An empty target set means "do not predict". */
struct Prediction
{
    CoreSet targets;
    PredSource source = PredSource::none;

    bool valid() const { return !targets.empty(); }
};

/**
 * Abstract destination-set predictor.
 *
 * Training callbacks:
 *  - trainResponse(): the requester observed who serviced its miss
 *    (data provider for reads, invalidation-ack senders for writes).
 *  - trainExternal(): a cache observed an incoming coherence request
 *    (forward or invalidation) from @p requester for a line it holds;
 *    @p last_pc is the static instruction that last touched the line
 *    locally (Kaxiras-Goodman style instruction correlation).
 *  - feedback(): outcome of an earlier prediction (sufficient or
 *    not), used by SP-prediction's confidence mechanism.
 */
class DestinationPredictor
{
  public:
    virtual ~DestinationPredictor() = default;

    /** Predict the destination set for a miss; may return invalid. */
    virtual Prediction predict(const PredictionQuery &q) = 0;

    /** The requester's miss was serviced by @p who. */
    virtual void trainResponse(const PredictionQuery &q,
                               const CoreSet &who) = 0;

    /** @p observer received an external request from @p requester. */
    virtual void trainExternal(CoreId observer, Addr line,
                               Addr macro_block, Pc last_pc,
                               CoreId requester, bool is_write) = 0;

    /** Report whether the predicted set was sufficient. */
    virtual void feedback(CoreId core, const Prediction &pred,
                          bool communicating, bool sufficient) = 0;

    /** Modelled storage cost in bits (Section 5.4 comparison). */
    virtual std::size_t storageBits() const = 0;

    /** Modelled prediction-table accesses (power comparison). */
    virtual std::uint64_t tableAccesses() const = 0;
};

/**
 * The predictor a Protocol::predicted or Protocol::multicast @p cfg
 * runs with: SpPredictor for PredictorKind::sp, a GroupPredictor for
 * addr/inst/uni. nullptr for the protocols that predict nothing.
 */
std::unique_ptr<DestinationPredictor> makePredictor(const Config &cfg);

} // namespace spp

#endif // SPP_PREDICT_PREDICTOR_HH
