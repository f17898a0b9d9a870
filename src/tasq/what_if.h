#ifndef TASQ_TASQ_WHAT_IF_H_
#define TASQ_TASQ_WHAT_IF_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "tasq/tasq.h"

namespace tasq {

/// One candidate operating point in a what-if report.
struct WhatIfPoint {
  double tokens = 0.0;
  double predicted_runtime_seconds = 0.0;
  /// Slowdown vs the reference allocation (>= 0 for monotone curves).
  double predicted_slowdown = 0.0;
  /// Token savings vs the reference allocation, in [0, 1).
  double token_savings_fraction = 0.0;
};

/// The user-facing what-if analysis of paper §2.2: instead of silently
/// applying an allocation, TASQ "displays the PCC to the users for them to
/// understand the performance-resource trade-off and to make an informed
/// decision". A report bundles the predicted curve, its elbow, and
/// recommendations at several policy settings.
struct WhatIfReport {
  ModelKind model = ModelKind::kNn;
  double reference_tokens = 0.0;
  /// Predicted PCC parameters (only for parametric models).
  PowerLawPcc pcc;
  bool has_pcc = false;
  /// The predicted curve sampled from 20% of the reference up to it.
  std::vector<WhatIfPoint> curve;
  /// Elbow of the predicted curve, 0 when none is detected.
  double elbow_tokens = 0.0;
  /// Recommendation at the 1%-per-token bar, unbounded.
  WhatIfPoint aggressive;
  /// Recommendation at the 1%-per-token bar with a 10% slowdown SLO.
  WhatIfPoint bounded;

  /// Renders the report as a human-readable text block.
  std::string ToText() const;
};

/// Largest curve resolution a report accepts. Callers ask for 9 or 17
/// points; the cap keeps a malformed request from reserving an unbounded
/// grid.
inline constexpr size_t kMaxWhatIfGridPoints = 1024;

/// Checks a request's scoring numbers before anything compares or
/// allocates with them: `reference_tokens` must pass
/// ValidateReferenceTokens, and `grid_points` must be at most
/// kMaxWhatIfGridPoints. Fewer than 3 grid points
/// is not an error: the builders raise it to 3. Both builders below run
/// it first, and so does PccServer::Submit.
TASQ_NODISCARD Status ValidateWhatIfRequest(double reference_tokens,
                                            size_t grid_points);

/// Builds a what-if report for an unseen job from a trained pipeline.
/// `grid_points` controls curve resolution (3 to kMaxWhatIfGridPoints;
/// smaller values are raised to 3). The job is featurized and scored
/// exactly once: the curve, elbow, and both recommendations derive from
/// that single predicted PCC, or XGBoost-SS's single spline, and equal
/// Tasq::PredictCurve and Tasq::RecommendTokens to the bit.
TASQ_NODISCARD Result<WhatIfReport> BuildWhatIfReport(const Tasq& tasq, const JobGraph& graph,
                                       ModelKind model,
                                       double reference_tokens,
                                       size_t grid_points = 9);

/// Derives the full report from an already-predicted parametric PCC
/// without touching the pipeline — the pure-math tail of
/// BuildWhatIfReport, exposed for callers that batch or cache model
/// inference (serve/server.h). Byte-identical to BuildWhatIfReport given
/// the PCC it would predict. Fails for XGBoost-SS, which has no
/// parametric form.
TASQ_NODISCARD Result<WhatIfReport> BuildWhatIfReportFromPcc(const PowerLawPcc& pcc,
                                              ModelKind model,
                                              double reference_tokens,
                                              size_t grid_points = 9);

}  // namespace tasq

#endif  // TASQ_TASQ_WHAT_IF_H_
