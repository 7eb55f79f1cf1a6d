#include "smt_mapper.hpp"

#include <sstream>

#include "support/logging.hpp"

namespace qc {

const char *
smtVariantName(SmtVariant v)
{
    switch (v) {
      case SmtVariant::TSmt: return "T-SMT";
      case SmtVariant::TSmtStar: return "T-SMT*";
      case SmtVariant::RSmtStar: return "R-SMT*";
    }
    QC_PANIC("unknown SMT variant");
}

SmtMapperOptions
effectiveSmtOptions(SmtMapperOptions options)
{
    if (options.variant == SmtVariant::RSmtStar)
        options.policy = RoutingPolicy::OneBendPath;
    return options;
}

std::string
smtMapperDisplayName(const SmtMapperOptions &options)
{
    std::ostringstream oss;
    oss << smtVariantName(options.variant);
    if (options.variant == SmtVariant::RSmtStar) {
        oss << " w=" << options.readoutWeight;
    } else {
        oss << " " << routingPolicyName(options.policy);
    }
    return oss.str();
}

SmtModelOptions
smtModelOptionsFor(const SmtMapperOptions &options, const Circuit &prog)
{
    SmtModelOptions model;
    model.policy = options.policy;
    model.readoutWeight = options.readoutWeight;
    model.timeoutMs = options.timeoutMs;
    model.jointScheduling = options.jointScheduling;
    // The joint routing-overlap encoding grows quadratically in CNOT
    // count; beyond paper-scale programs the reliability variant
    // solves placement + junctions exactly and realizes the schedule
    // with the list scheduler (identical objective value).
    if (options.variant == SmtVariant::RSmtStar &&
        prog.cnotCount() > kJointSchedulingCnotLimit) {
        model.jointScheduling = false;
    }
    switch (options.variant) {
      case SmtVariant::TSmt:
        model.objective = SmtObjectiveKind::Duration;
        model.calibrationAware = false;
        break;
      case SmtVariant::TSmtStar:
        model.objective = SmtObjectiveKind::Duration;
        model.calibrationAware = true;
        break;
      case SmtVariant::RSmtStar:
        model.objective = SmtObjectiveKind::Reliability;
        model.calibrationAware = true;
        break;
    }
    return model;
}

} // namespace qc
