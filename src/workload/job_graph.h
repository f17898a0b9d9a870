#ifndef TASQ_WORKLOAD_JOB_GRAPH_H_
#define TASQ_WORKLOAD_JOB_GRAPH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/hot.h"
#include "common/status.h"
#include "simcluster/job_plan.h"
#include "workload/operators.h"

namespace tasq {

/// Compile-time features of one operator in a query plan (paper Table 1).
/// Continuous features are optimizer *estimates*; the generator adds
/// estimate noise so models face realistic mis-estimation.
struct OperatorFeatures {
  // Continuous (float) features.
  double output_cardinality = 0.0;
  double leaf_input_cardinality = 0.0;
  double children_input_cardinality = 0.0;
  double average_row_length = 0.0;
  double cost_subtree = 0.0;
  double cost_exclusive = 0.0;
  double cost_total = 0.0;
  // Discrete (integer) features.
  int num_partitions = 0;
  int num_partitioning_columns = 0;
  int num_sort_columns = 0;
};

/// One node of a job's operator DAG.
struct OperatorNode {
  /// Dense id, 0..n-1, topologically ordered (inputs have smaller ids).
  int id = 0;
  PhysicalOperator op = PhysicalOperator::kExtract;
  PartitioningMethod partitioning = PartitioningMethod::kNone;
  /// Ids of operators feeding this one.
  std::vector<int> inputs;
  OperatorFeatures features;
  /// Stage of the derived execution plan this operator executes in.
  int stage = 0;
};

/// The compile-time artifact of a job: a DAG of physical operators with
/// their estimated features. This is what the TASQ models see — run-time
/// telemetry (skylines) never feeds scoring.
struct JobGraph {
  std::vector<OperatorNode> operators;

  /// Directed edges (from, to) derived from operator inputs.
  std::vector<std::pair<int, int>> Edges() const;

  /// Number of distinct stages referenced by the operators.
  int NumStages() const;

  /// Deterministic 64-bit content hash over every operator, edge, and
  /// feature of the graph. Two graphs hash equal iff their structure and
  /// features are identical, so the hash identifies recurring jobs at the
  /// serving layer (src/serve) without comparing whole graphs. The value
  /// depends only on graph content — never on addresses or iteration
  /// order — and is stable across runs, threads, and processes.
  /// TASQ_HOT: runs per request on the serving fast path; walks the
  /// operators in place without allocating (tasq_check.py hot).
  TASQ_HOT uint64_t Fingerprint() const;

  /// Checks ids are dense/ordered, inputs reference earlier operators,
  /// and every continuous operator feature is finite (a NaN or infinite
  /// estimate has no meaningful log-scaled feature).
  TASQ_NODISCARD Status Validate() const;
};

/// A complete generated job: the compile-time graph, the executable stage
/// plan it lowers to, and submission metadata.
struct Job {
  int64_t id = 0;
  /// Template this job was instantiated from (-1 for fully ad-hoc jobs).
  int template_id = -1;
  /// True when the job recurs (same template, drifting input size).
  bool recurring = false;
  /// Relative input size multiplier applied to the template instance.
  double input_scale = 1.0;
  /// Tokens the user requested at submission (the often-over-allocated
  /// "Default Allocation" of Figure 1).
  double default_tokens = 1.0;
  JobGraph graph;
  JobPlan plan;
};

}  // namespace tasq

#endif  // TASQ_WORKLOAD_JOB_GRAPH_H_
