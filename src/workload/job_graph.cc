#include "workload/job_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace tasq {

namespace {

// FNV-1a 64-bit over explicitly serialized fields. Each field is mixed as a
// fixed-width integer, so the hash is a pure function of graph content —
// independent of padding, pointers, or platform struct layout.
constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x00000100000001B3ULL;

void MixU64(uint64_t& h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xFFu;
    h *= kFnvPrime;
  }
}

void MixDouble(uint64_t& h, double v) {
  // Canonicalize the two zero representations and all NaN payloads so
  // numerically equal features always hash equal.
  if (v == 0.0) v = 0.0;  // num: float-eq canonicalizes -0.0 to +0.0
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  MixU64(h, std::bit_cast<uint64_t>(v));
}

}  // namespace

std::vector<std::pair<int, int>> JobGraph::Edges() const {
  std::vector<std::pair<int, int>> edges;
  for (const OperatorNode& node : operators) {
    for (int input : node.inputs) {
      edges.emplace_back(input, node.id);
    }
  }
  return edges;
}

int JobGraph::NumStages() const {
  int max_stage = -1;
  for (const OperatorNode& node : operators) {
    max_stage = std::max(max_stage, node.stage);
  }
  return max_stage + 1;
}

uint64_t JobGraph::Fingerprint() const {
  uint64_t h = kFnvOffset;
  MixU64(h, operators.size());
  for (const OperatorNode& node : operators) {
    MixU64(h, static_cast<uint64_t>(node.id));
    MixU64(h, static_cast<uint64_t>(node.op));
    MixU64(h, static_cast<uint64_t>(node.partitioning));
    MixU64(h, static_cast<uint64_t>(node.stage));
    MixU64(h, node.inputs.size());
    for (int input : node.inputs) MixU64(h, static_cast<uint64_t>(input));
    const OperatorFeatures& f = node.features;
    MixDouble(h, f.output_cardinality);
    MixDouble(h, f.leaf_input_cardinality);
    MixDouble(h, f.children_input_cardinality);
    MixDouble(h, f.average_row_length);
    MixDouble(h, f.cost_subtree);
    MixDouble(h, f.cost_exclusive);
    MixDouble(h, f.cost_total);
    MixU64(h, static_cast<uint64_t>(f.num_partitions));
    MixU64(h, static_cast<uint64_t>(f.num_partitioning_columns));
    MixU64(h, static_cast<uint64_t>(f.num_sort_columns));
  }
  return h;
}

Status JobGraph::Validate() const {
  if (operators.empty()) {
    return Status::InvalidArgument("job graph has no operators");
  }
  for (size_t i = 0; i < operators.size(); ++i) {
    const OperatorNode& node = operators[i];
    if (node.id != static_cast<int>(i)) {
      return Status::InvalidArgument("operator ids must be dense and ordered");
    }
    for (int input : node.inputs) {
      if (input < 0 || input >= node.id) {
        return Status::InvalidArgument(
            "operator inputs must reference earlier operators");
      }
    }
    if (node.stage < 0) {
      return Status::InvalidArgument("operator stage must be non-negative");
    }
    const OperatorFeatures& f = node.features;
    for (double value :
         {f.output_cardinality, f.leaf_input_cardinality,
          f.children_input_cardinality, f.average_row_length, f.cost_subtree,
          f.cost_exclusive, f.cost_total}) {
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("operator features must be finite");
      }
    }
  }
  return Status::Ok();
}

}  // namespace tasq
