#include "service/serve_spec.h"

#include <sstream>

#include "service/engine_jobs.h"

namespace ditto::service {
namespace {

Result<double> parse_double(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const double d = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return d;
  } catch (const std::exception&) {
    return Status::invalid_argument("bad numeric value for " + key + ": '" + value + "'");
  }
}

Result<std::int64_t> parse_int(const std::string& key, const std::string& value) {
  try {
    std::size_t used = 0;
    const long long n = std::stoll(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return static_cast<std::int64_t>(n);
  } catch (const std::exception&) {
    return Status::invalid_argument("bad integer value for " + key + ": '" + value + "'");
  }
}

Status apply_job_token(ServeJobSpec& job, const std::string& key, const std::string& value) {
  if (key == "arrival" || key == "deadline") {
    DITTO_ASSIGN_OR_RETURN(const double d, parse_double(key, value));
    if (d < 0.0) return Status::invalid_argument(key + " must be >= 0");
    (key == "arrival" ? job.arrival : job.deadline) = d;
    return Status::ok();
  }
  if (key == "objective") {
    if (value == "jct") {
      job.objective = Objective::kJct;
    } else if (value == "cost") {
      job.objective = Objective::kCost;
    } else {
      return Status::invalid_argument("bad objective '" + value + "' (want jct|cost)");
    }
    return Status::ok();
  }
  if (key == "label") {
    job.label = value;
    return Status::ok();
  }
  if (key == "rows") {
    DITTO_ASSIGN_OR_RETURN(const std::int64_t n, parse_int(key, value));
    if (n <= 0) return Status::invalid_argument("rows must be > 0");
    job.data.fact_rows = static_cast<std::size_t>(n);
    return Status::ok();
  }
  if (key == "orders") {
    DITTO_ASSIGN_OR_RETURN(const std::int64_t n, parse_int(key, value));
    if (n <= 0) return Status::invalid_argument("orders must be > 0");
    job.data.num_orders = n;
    return Status::ok();
  }
  if (key == "seed") {
    DITTO_ASSIGN_OR_RETURN(const std::int64_t n, parse_int(key, value));
    job.data.seed = static_cast<std::uint64_t>(n);
    return Status::ok();
  }
  if (key == "faults") {
    DITTO_ASSIGN_OR_RETURN(job.faults, faults::parse_fault_spec(value));
    return Status::ok();
  }
  if (key == "tier") {
    if (value != "latency" && value != "batch") {
      return Status::invalid_argument("bad tier '" + value + "' (want latency|batch)");
    }
    job.tier = value;
    return Status::ok();
  }
  if (key == "retries") {
    DITTO_ASSIGN_OR_RETURN(const std::int64_t n, parse_int(key, value));
    if (n < 0) return Status::invalid_argument("retries must be >= 0");
    job.retries = static_cast<int>(n);
    return Status::ok();
  }
  if (key == "cache") {
    if (value != "on" && value != "off") {
      return Status::invalid_argument("cache must be on or off");
    }
    job.cache = value == "on";
    return Status::ok();
  }
  if (key == "input_version") {
    DITTO_ASSIGN_OR_RETURN(const std::int64_t n, parse_int(key, value));
    if (n < 0) return Status::invalid_argument("input_version must be >= 0");
    job.input_version = static_cast<std::uint64_t>(n);
    return Status::ok();
  }
  return Status::invalid_argument("unknown job option '" + key + "'");
}

Status apply_policy_token(ServeSpec& spec, const std::string& key, const std::string& value) {
  if (key == "fair_share_slots" || key == "min_free_slots") {
    DITTO_ASSIGN_OR_RETURN(const std::int64_t n, parse_int(key, value));
    if (n <= 0) return Status::invalid_argument(key + " must be > 0");
    (key == "fair_share_slots" ? spec.admission.fair_share_slots
                               : spec.admission.min_free_slots) = static_cast<int>(n);
    return Status::ok();
  }
  if (key == "queue_depth") {
    DITTO_ASSIGN_OR_RETURN(const std::int64_t n, parse_int(key, value));
    if (n < 0) return Status::invalid_argument("queue_depth must be >= 0");
    spec.max_queue_depth = static_cast<std::size_t>(n);
    return Status::ok();
  }
  if (key == "reject_infeasible") {
    if (value != "0" && value != "1") {
      return Status::invalid_argument("reject_infeasible must be 0 or 1");
    }
    spec.reject_infeasible = value == "1";
    return Status::ok();
  }
  if (key == "cache_bytes") {
    DITTO_ASSIGN_OR_RETURN(const std::int64_t n, parse_int(key, value));
    if (n < 0) return Status::invalid_argument("cache_bytes must be >= 0");
    spec.cache_bytes = static_cast<Bytes>(n);
    return Status::ok();
  }
  return Status::invalid_argument("unknown policy option '" + key + "'");
}

}  // namespace

Result<ServeSpec> parse_serve_spec(const std::string& text) {
  ServeSpec spec;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head)) continue;  // blank / comment-only line

    const auto fail = [&](const Status& st) {
      return Status::invalid_argument("serve spec line " + std::to_string(line_no) + ": " +
                                      st.message());
    };

    if (head == "policy") {
      std::string name;
      if (!(tokens >> name)) {
        return fail(Status::invalid_argument("policy needs a name (fifo|fair|elastic)"));
      }
      const auto policy = parse_admission_policy(name);
      if (!policy.ok()) return fail(policy.status());
      spec.admission.policy = *policy;
      std::string token;
      while (tokens >> token) {
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
          return fail(Status::invalid_argument("expected key=value, got '" + token + "'"));
        }
        const Status st = apply_policy_token(spec, token.substr(0, eq), token.substr(eq + 1));
        if (!st.is_ok()) return fail(st);
      }
      continue;
    }

    if (head == "job") {
      ServeJobSpec job;
      if (!(tokens >> job.query)) {
        return fail(Status::invalid_argument("job needs a query name"));
      }
      const auto known = workload::find_engine_query(job.query);
      if (!known.ok()) return fail(known.status());
      std::string token;
      while (tokens >> token) {
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
          return fail(Status::invalid_argument("expected key=value, got '" + token + "'"));
        }
        const Status st = apply_job_token(job, token.substr(0, eq), token.substr(eq + 1));
        if (!st.is_ok()) return fail(st);
      }
      // Keep the raw line: it becomes the journaled SUBMIT payload.
      const auto first = line.find_first_not_of(" \t");
      const auto last = line.find_last_not_of(" \t\r");
      job.line = line.substr(first, last - first + 1);
      spec.jobs.push_back(std::move(job));
      continue;
    }

    return fail(Status::invalid_argument("unknown directive '" + head + "' (want policy|job)"));
  }
  if (spec.jobs.empty()) return Status::invalid_argument("serve spec has no job lines");
  return spec;
}

}  // namespace ditto::service
