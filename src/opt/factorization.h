#pragma once

#include "src/exec/pipeline.h"
#include "src/opt/pipeline/planner_options.h"

namespace gopt {

/// Decides, per pipeline, whether the morsel runtime keeps expansion output
/// factorized (docs/factorization.md), annotating Pipeline::factorized /
/// lazy_ops / flatten_points in place. Called once at plan time — the
/// decisions are frozen into the cached prepared plan, which is why the
/// FactorizationMode knob is part of OptionsFingerprint.
///
/// The decision per pipeline with at least one expansion or inner /
/// left-outer hash join probe:
///  - kOff:  never factorize.
///  - kOn:   always factorize.
///  - kAuto: factorize when a backward liveness walk from the sink proves
///    some expansion's produced columns, or some join's appended build
///    columns, dead (it can then emit multiplicity-only groups — the
///    biggest win), or the CBO's estimated per-step fan-out
///    (PhysOp::est_rows ratios) exceeds a threshold, or — with no
///    estimates at all — the pipeline chains two or more expansions
///    (prefix sharing compounds per hop).
///
/// The liveness walk carries through joins (a probe passes its input
/// columns on and reads its keys) and fills `lazy_ops`; `flatten_points`
/// counts where the runtime will be forced to expand groups back to flat
/// rows.
void ChooseFactorization(PipelinePlan* plan, FactorizationMode mode);

}  // namespace gopt
