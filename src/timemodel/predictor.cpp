#include "timemodel/predictor.h"

#include <algorithm>
#include <cassert>

namespace ditto {

ColocatedFn nothing_colocated() {
  return [](StageId, StageId) { return false; };
}

ColocatedFn everything_colocated() {
  return [](StageId, StageId) { return true; };
}

ExecTimePredictor::ExecTimePredictor(const JobDag& dag) : dag_(&dag), topology_(dag) {
  row_begin_.reserve(dag.num_stages() + 1);
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    row_begin_.push_back(rows_.size());
    for (const Step& step : dag.stage(s).steps()) {
      if (step.pipelined) continue;  // overlapped with the producer (paper §4.5)
      StepRow row{step.kind, kNoStage, -1, step.alpha, step.beta};
      // External storage IO and compute are never zero-copy.
      if (step.kind != StepKind::kCompute && step.dep != kNoStage) {
        row.dep = step.dep;
        row.edge = step.kind == StepKind::kRead ? topology_.edge_index(step.dep, s)
                                                : topology_.edge_index(s, step.dep);
      }
      rows_.push_back(row);
    }
  }
  row_begin_.push_back(rows_.size());

  compute_.resize(dag.num_stages());
  for (StageId s = 0; s < dag.num_stages(); ++s) {
    compute_[s] = sum_rows(s, [](const StepRow& row) { return row.kind == StepKind::kCompute; });
  }
  for (const Edge& e : dag.edges()) {
    edge_write_.push_back(edge_write_sum(e.src, e.dst));
    edge_read_.push_back(edge_read_sum(e.src, e.dst));
  }
}

template <class Keep>
StepModel ExecTimePredictor::sum_rows(StageId s, Keep keep) const {
  StepModel m;
  for (std::size_t i = row_begin_[s]; i < row_begin_[s + 1]; ++i) {
    const StepRow& row = rows_[i];
    if (!keep(row)) continue;  // zero-copy steps cost alpha = beta = 0
    m.alpha += row.alpha;
    m.beta += row.beta;
  }
  return m;
}

StepModel ExecTimePredictor::scaled(StageId s, StepModel m) const {
  m.alpha *= straggler_factor(s);
  return m;
}

StepModel ExecTimePredictor::edge_write_sum(StageId src, StageId dst) const {
  return sum_rows(src, [dst](const StepRow& row) {
    return row.kind == StepKind::kWrite && row.dep == dst;
  });
}

StepModel ExecTimePredictor::edge_read_sum(StageId src, StageId dst) const {
  return sum_rows(dst, [src](const StepRow& row) {
    return row.kind == StepKind::kRead && row.dep == src;
  });
}

namespace {

/// Whether `colocated` makes row's IO zero-copy: a read step of stage
/// s reads from (dep, s), a write step feeds (s, dep).
template <class Row>
bool colocated_row(StageId s, const Row& row, const ColocatedFn& colocated) {
  if (row.dep == kNoStage) return false;
  return row.kind == StepKind::kRead ? colocated(row.dep, s) : colocated(s, row.dep);
}

template <class Row>
bool grouped_row(const Row& row, const EdgeFlags& grouped) {
  return row.edge >= 0 && grouped[row.edge];
}

}  // namespace

StepModel ExecTimePredictor::stage_model(StageId s, const ColocatedFn& colocated) const {
  return scaled(s, sum_rows(s, [&](const StepRow& row) {
                  return !colocated_row(s, row, colocated);
                }));
}

StepModel ExecTimePredictor::stage_model(StageId s, const EdgeFlags& grouped) const {
  return scaled(s, sum_rows(s, [&](const StepRow& row) { return !grouped_row(row, grouped); }));
}

std::vector<StepModel> ExecTimePredictor::stage_models(const EdgeFlags& grouped) const {
  std::vector<StepModel> models(dag_->num_stages());
  for (StageId s = 0; s < models.size(); ++s) models[s] = stage_model(s, grouped);
  return models;
}

double ExecTimePredictor::stage_time(StageId s, int dop, const ColocatedFn& colocated) const {
  assert(dop >= 1);
  return stage_model(s, colocated).eval(dop);
}

double ExecTimePredictor::read_time(StageId s, int dop, const ColocatedFn& colocated) const {
  const StepModel m = sum_rows(s, [&](const StepRow& row) {
    return row.kind == StepKind::kRead && !colocated_row(s, row, colocated);
  });
  return scaled(s, m).eval(dop);
}

double ExecTimePredictor::read_time(StageId s, int dop, const EdgeFlags& grouped) const {
  const StepModel m = sum_rows(s, [&](const StepRow& row) {
    return row.kind == StepKind::kRead && !grouped_row(row, grouped);
  });
  return scaled(s, m).eval(dop);
}

double ExecTimePredictor::compute_time(StageId s, int dop) const {
  return scaled(s, compute_[s]).eval(dop);
}

double ExecTimePredictor::write_time(StageId s, int dop, const ColocatedFn& colocated) const {
  const StepModel m = sum_rows(s, [&](const StepRow& row) {
    return row.kind == StepKind::kWrite && !colocated_row(s, row, colocated);
  });
  return scaled(s, m).eval(dop);
}

void ExecTimePredictor::set_straggler_factor(StageId s, double factor) {
  assert(factor > 0.0);
  if (straggler_.size() <= s) straggler_.resize(s + 1, 0.0);  // 0 = unset
  straggler_[s] = factor;
}

double ExecTimePredictor::straggler_factor(StageId s) const {
  // Explicit overrides win; otherwise use the profiler-recorded scale
  // carried on the stage itself.
  if (s < straggler_.size() && straggler_[s] > 0.0) return straggler_[s];
  return dag_->stage(s).straggler_scale();
}

double ExecTimePredictor::stage_cost(StageId s, int dop, const ColocatedFn& colocated) const {
  return resource_usage(s, dop) * stage_time(s, dop, colocated);
}

double ExecTimePredictor::resource_usage(StageId s, int dop) const {
  const Stage& st = dag_->stage(s);
  return st.rho() + st.sigma() * static_cast<double>(dop);
}

double ExecTimePredictor::edge_write_time(StageId src, StageId dst, int dop_src) const {
  return scaled(src, edge_write_sum(src, dst)).eval(std::max(dop_src, 1));
}

double ExecTimePredictor::edge_read_time(StageId src, StageId dst, int dop_dst) const {
  return scaled(dst, edge_read_sum(src, dst)).eval(std::max(dop_dst, 1));
}

double ExecTimePredictor::edge_write_time(int e, int dop_src) const {
  return scaled(dag_->edges()[e].src, edge_write_[e]).eval(std::max(dop_src, 1));
}

double ExecTimePredictor::edge_read_time(int e, int dop_dst) const {
  return scaled(dag_->edges()[e].dst, edge_read_[e]).eval(std::max(dop_dst, 1));
}

double ExecTimePredictor::edge_io_time(StageId src, StageId dst, int dop_src,
                                       int dop_dst) const {
  return edge_write_time(src, dst, dop_src) + edge_read_time(src, dst, dop_dst);
}

}  // namespace ditto
