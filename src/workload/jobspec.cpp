#include "workload/jobspec.h"

#include <cctype>
#include <cmath>
#include <map>
#include <sstream>

#include "dag/dag_builder.h"

namespace ditto::workload {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;  // comment
    out.push_back(tok);
  }
  return out;
}

Status line_error(int line_no, const std::string& message) {
  return Status::invalid_argument("line " + std::to_string(line_no) + ": " + message);
}

Result<ExchangeKind> parse_exchange(const std::string& s) {
  if (s == "shuffle") return ExchangeKind::kShuffle;
  if (s == "gather") return ExchangeKind::kGather;
  if (s == "broadcast") return ExchangeKind::kBroadcast;
  if (s == "all-gather" || s == "allgather") return ExchangeKind::kAllGather;
  return Status::invalid_argument("unknown exchange kind: " + s);
}

/// Splits "key=value" into its parts; empty key when '=' is absent.
std::pair<std::string, std::string> split_kv(const std::string& tok) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) return {"", tok};
  return {tok.substr(0, eq), tok.substr(eq + 1)};
}

}  // namespace

Result<Bytes> parse_size(const std::string& text) {
  if (text.empty()) return Status::invalid_argument("empty size");
  std::size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.')) {
    ++i;
  }
  if (i == 0) return Status::invalid_argument("size must start with a number: " + text);
  double value;
  try {
    value = std::stod(text.substr(0, i));
  } catch (...) {
    return Status::invalid_argument("bad number in size: " + text);
  }
  const std::string unit = text.substr(i);
  double mult;
  if (unit.empty() || unit == "B") {
    mult = 1;
  } else if (unit == "KB") {
    mult = 1e3;
  } else if (unit == "MB") {
    mult = 1e6;
  } else if (unit == "GB") {
    mult = 1e9;
  } else if (unit == "TB") {
    mult = 1e12;
  } else if (unit == "KiB") {
    mult = 1024.0;
  } else if (unit == "MiB") {
    mult = 1024.0 * 1024;
  } else if (unit == "GiB") {
    mult = 1024.0 * 1024 * 1024;
  } else {
    return Status::invalid_argument("unknown size unit: " + unit);
  }
  return static_cast<Bytes>(value * mult);
}

Result<JobDag> parse_job_spec(const std::string& text) {
  DagBuilder* builder = nullptr;
  std::unique_ptr<DagBuilder> holder;
  std::istringstream is(text);
  std::string line;
  int line_no = 0;

  while (std::getline(is, line)) {
    ++line_no;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;

    if (toks[0] == "job") {
      if (toks.size() != 2) return line_error(line_no, "usage: job <name>");
      if (builder != nullptr) return line_error(line_no, "duplicate job directive");
      holder = std::make_unique<DagBuilder>(toks[1]);
      builder = holder.get();
    } else if (toks[0] == "stage") {
      if (builder == nullptr) return line_error(line_no, "stage before job directive");
      if (toks.size() < 3) {
        return line_error(line_no, "usage: stage <name> <op> [input=..] [output=..]");
      }
      StageSpec spec;
      spec.op = toks[2];
      for (std::size_t i = 3; i < toks.size(); ++i) {
        const auto [key, value] = split_kv(toks[i]);
        DITTO_ASSIGN_OR_RETURN(const Bytes bytes, parse_size(value));
        if (key == "input") {
          spec.input = bytes;
        } else if (key == "output") {
          spec.output = bytes;
        } else {
          return line_error(line_no, "unknown stage attribute: " + key);
        }
      }
      builder->stage(toks[1], spec);
    } else if (toks[0] == "edge") {
      if (builder == nullptr) return line_error(line_no, "edge before job directive");
      if (toks.size() < 3) {
        return line_error(line_no, "usage: edge <src> <dst> [kind] [bytes=..]");
      }
      ExchangeKind kind = ExchangeKind::kShuffle;
      Bytes bytes = 0;
      for (std::size_t i = 3; i < toks.size(); ++i) {
        const auto [key, value] = split_kv(toks[i]);
        if (key.empty()) {
          DITTO_ASSIGN_OR_RETURN(kind, parse_exchange(value));
        } else if (key == "bytes") {
          DITTO_ASSIGN_OR_RETURN(bytes, parse_size(value));
        } else {
          return line_error(line_no, "unknown edge attribute: " + key);
        }
      }
      builder->edge(toks[1], toks[2], kind, bytes);
    } else {
      return line_error(line_no, "unknown directive: " + toks[0]);
    }
  }
  if (builder == nullptr) return Status::invalid_argument("no job directive in spec");
  return builder->build();
}

Result<cluster::Cluster> parse_cluster_spec(const std::string& text) {
  const auto at = text.find('@');
  const std::string shape = text.substr(0, at == std::string::npos ? text.size() : at);
  const auto x = shape.find('x');
  if (x == std::string::npos) {
    return Status::invalid_argument("cluster spec needs <servers>x<slots>: " + text);
  }
  int servers, slots;
  try {
    servers = std::stoi(shape.substr(0, x));
    slots = std::stoi(shape.substr(x + 1));
  } catch (...) {
    return Status::invalid_argument("bad cluster shape: " + text);
  }
  if (servers <= 0 || slots <= 0) {
    return Status::invalid_argument("cluster needs positive servers and slots");
  }

  cluster::SlotDistributionSpec dist = cluster::uniform_usage(1.0);
  if (at != std::string::npos) {
    const std::string d = text.substr(at + 1);
    const auto dash = d.rfind('-');
    if (dash == std::string::npos) {
      return Status::invalid_argument("distribution needs a parameter: " + d);
    }
    double param;
    try {
      param = std::stod(d.substr(dash + 1));
    } catch (...) {
      return Status::invalid_argument("bad distribution parameter: " + d);
    }
    const std::string kind = d.substr(0, dash);
    if (kind == "uniform") {
      dist = cluster::uniform_usage(param);
    } else if (kind == "norm") {
      dist = {cluster::SlotDistributionKind::kNormal, param};
    } else if (kind == "zipf") {
      dist = {cluster::SlotDistributionKind::kZipf, param};
    } else {
      return Status::invalid_argument("unknown distribution: " + kind);
    }
  }
  return cluster::Cluster::from_distribution(dist, servers, slots);
}

}  // namespace ditto::workload
