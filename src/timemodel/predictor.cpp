#include "timemodel/predictor.h"

#include <cassert>

namespace ditto {

ColocatedFn nothing_colocated() {
  return [](StageId, StageId) { return false; };
}

ColocatedFn everything_colocated() {
  return [](StageId, StageId) { return true; };
}

bool ExecTimePredictor::step_is_zero_copy(StageId s, const Step& step,
                                          const ColocatedFn& colocated) const {
  if (step.kind == StepKind::kCompute) return false;
  if (step.dep == kNoStage) return false;  // external storage IO is never free
  if (step.kind == StepKind::kRead) return colocated(step.dep, s);
  return colocated(s, step.dep);  // write step feeding a downstream stage
}

StepModel ExecTimePredictor::stage_model(StageId s, const ColocatedFn& colocated) const {
  StepModel m;
  for (const Step& step : dag_->stage(s).steps()) {
    if (step.pipelined) continue;  // overlapped with the producer (paper §4.5)
    if (step_is_zero_copy(s, step, colocated)) continue;  // alpha = beta = 0
    m.alpha += step.alpha;
    m.beta += step.beta;
  }
  m.alpha *= straggler_factor(s);
  return m;
}

double ExecTimePredictor::stage_time(StageId s, int dop, const ColocatedFn& colocated) const {
  assert(dop >= 1);
  return stage_model(s, colocated).eval(dop);
}

double ExecTimePredictor::kind_time(StageId s, int dop, StepKind kind,
                                    const ColocatedFn& colocated) const {
  assert(dop >= 1);
  StepModel m;
  for (const Step& step : dag_->stage(s).steps()) {
    if (step.kind != kind || step.pipelined) continue;
    if (step_is_zero_copy(s, step, colocated)) continue;
    m.alpha += step.alpha;
    m.beta += step.beta;
  }
  m.alpha *= straggler_factor(s);
  return m.eval(dop);
}

double ExecTimePredictor::read_time(StageId s, int dop, const ColocatedFn& colocated) const {
  return kind_time(s, dop, StepKind::kRead, colocated);
}

double ExecTimePredictor::compute_time(StageId s, int dop) const {
  return kind_time(s, dop, StepKind::kCompute, nothing_colocated());
}

double ExecTimePredictor::write_time(StageId s, int dop, const ColocatedFn& colocated) const {
  return kind_time(s, dop, StepKind::kWrite, colocated);
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
  StepModel m;
  for (const Step& step : dag_->stage(src).steps()) {
    if (step.kind == StepKind::kWrite && step.dep == dst && !step.pipelined) {
      m += StepModel{step.alpha, step.beta};
    }
  }
  m.alpha *= straggler_factor(src);
  return m.eval(std::max(dop_src, 1));
}

double ExecTimePredictor::edge_read_time(StageId src, StageId dst, int dop_dst) const {
  StepModel m;
  for (const Step& step : dag_->stage(dst).steps()) {
    if (step.kind == StepKind::kRead && step.dep == src && !step.pipelined) {
      m += StepModel{step.alpha, step.beta};
    }
  }
  m.alpha *= straggler_factor(dst);
  return m.eval(std::max(dop_dst, 1));
}

double ExecTimePredictor::edge_io_time(StageId src, StageId dst, int dop_src,
                                       int dop_dst) const {
  return edge_write_time(src, dst, dop_src) + edge_read_time(src, dst, dop_dst);
}

}  // namespace ditto
