// HttpEndpoint: routing without sockets, real loopback serving on an
// ephemeral port, and scraping concurrently with live job traffic.
#include "service/http_endpoint.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <thread>

#include "exec/datagen.h"
#include "exec/operators.h"
#include "obs/prometheus.h"
#include "storage/mem_store.h"
#include "storage/sim_store.h"
#include "support/json_parse.h"
#include "workload/physics.h"

namespace ditto::service {
namespace {

/// Blocking one-shot HTTP GET against 127.0.0.1:port.
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect to 127.0.0.1:" << port << " failed";
    return "";
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(HttpEndpointTest, RespondRoutesWithoutSockets) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  registry.counter("engine.tasks_total").add(5);

  HttpEndpoint::Options opt;
  opt.metrics = &registry;
  const HttpEndpoint ep(opt);

  EXPECT_NE(ep.respond("POST", "/metrics").find("405 Method Not Allowed"),
            std::string::npos);
  EXPECT_NE(ep.respond("GET", "/nope").find("404 Not Found"), std::string::npos);

  const std::string health = ep.respond("GET", "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string metrics = ep.respond("GET", "/metrics?ignored=1");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("engine_tasks_total 5"), std::string::npos);
  const Status valid = obs::validate_prometheus_text(body_of(metrics));
  EXPECT_TRUE(valid.is_ok()) << valid.to_string();

  // No JobService wired: /jobs still returns well-formed JSON.
  const auto jobs = obs::parse_json(body_of(ep.respond("GET", "/jobs")));
  ASSERT_TRUE(jobs.ok()) << jobs.status().to_string();
  ASSERT_TRUE(jobs->is_object());
  EXPECT_TRUE(jobs->find("jobs")->is_array());
  EXPECT_TRUE(jobs->find("jobs")->as_array().empty());
}

TEST(HttpEndpointTest, ServesOverRealSocketsOnEphemeralPort) {
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  registry.gauge("service.free_slots").set(8);

  HttpEndpoint::Options opt;
  opt.port = 0;  // ephemeral
  opt.metrics = &registry;
  HttpEndpoint ep(opt);
  ASSERT_TRUE(ep.start().is_ok());
  ASSERT_GT(ep.port(), 0);
  EXPECT_FALSE(ep.start().is_ok());  // double start refused

  EXPECT_NE(http_get(ep.port(), "/healthz").find("200 OK"), std::string::npos);
  const std::string metrics = body_of(http_get(ep.port(), "/metrics"));
  EXPECT_TRUE(obs::validate_prometheus_text(metrics).is_ok()) << metrics;
  EXPECT_NE(metrics.find("service_free_slots 8"), std::string::npos);
  EXPECT_NE(http_get(ep.port(), "/missing").find("404"), std::string::npos);
  EXPECT_GE(ep.requests_served(), 3u);

  ep.stop();
  ep.stop();  // idempotent
}

TEST(HttpEndpointTest, RequestIsCountedBeforeItsResponseIsRead) {
  HttpEndpoint::Options opt;
  opt.port = 0;
  HttpEndpoint ep(opt);
  ASSERT_TRUE(ep.start().is_ok());
  // The serve loop closes the connection right after its send, so a
  // count taken after the close could trail a client that has already
  // read the whole response.
  for (std::size_t i = 1; i <= 50; ++i) {
    ASSERT_NE(http_get(ep.port(), "/healthz").find("200 OK"), std::string::npos);
    ASSERT_EQ(ep.requests_served(), i) << "after response " << i;
  }
  ep.stop();
}

TEST(HttpEndpointTest, LargeMetricsBodyIsDeliveredCompletely) {
  // Chunk counters grow the /metrics exposition well past one socket
  // buffer; the serve loop's partial-write handling must deliver every
  // byte. Thousands of labeled series make a multi-hundred-KB body.
  obs::MetricsRegistry registry;
  registry.set_enabled(true);
  for (int i = 0; i < 4000; ++i) {
    registry.counter("exchange.chunks_published",
                     {{"edge", "edge_" + std::to_string(i) + "_with_a_long_label_suffix"}})
        .add(i);
  }

  HttpEndpoint::Options opt;
  opt.port = 0;
  opt.metrics = &registry;
  HttpEndpoint ep(opt);
  ASSERT_TRUE(ep.start().is_ok());

  const std::string response = http_get(ep.port(), "/metrics");
  const std::string body = body_of(response);
  // Content-Length must match what actually arrived — a short write
  // would truncate the body.
  const std::size_t cl_pos = response.find("Content-Length: ");
  ASSERT_NE(cl_pos, std::string::npos);
  const std::size_t declared = std::stoul(response.substr(cl_pos + 16));
  EXPECT_EQ(body.size(), declared);
  EXPECT_GT(body.size(), 100u * 1024);
  // First and last series both present: nothing dropped at either end.
  EXPECT_NE(body.find("edge_0_with_a_long_label_suffix"), std::string::npos);
  EXPECT_NE(body.find("edge_3999_with_a_long_label_suffix"), std::string::npos);
  EXPECT_TRUE(obs::validate_prometheus_text(body).is_ok());
  ep.stop();
}

/// Minimal two-stage sleep job (scan tasks sleep so the job stays
/// visibly RUNNING while scrapes land).
JobSubmission make_sleep_job(const std::string& name, double sleep_seconds) {
  JobDag dag(name);
  const StageId scan = dag.add_stage("scan");
  const StageId agg = dag.add_stage("agg");
  EXPECT_TRUE(dag.add_edge(scan, agg, ExchangeKind::kShuffle).is_ok());

  auto fact = std::make_shared<const exec::Table>(
      exec::gen_fact_table({.rows = 500, .num_warehouses = 4, .seed = 3}));

  JobSubmission sub;
  sub.label = name;
  sub.dag = dag;
  sub.bindings[scan] = exec::StageBinding{
      [fact, sleep_seconds](int task, int dop,
                            const std::vector<exec::Table>&) -> Result<exec::Table> {
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
        return exec::range_slice(fact, task, dop);
      },
      "warehouse_id"};
  sub.bindings[agg] = exec::StageBinding{
      [](int, int, const std::vector<exec::Table>& inputs) -> Result<exec::Table> {
        return exec::group_by(inputs.at(0), "warehouse_id",
                              {{exec::AggKind::kSum, "quantity", "qty"}});
      },
      ""};
  sub.keepalive = fact;

  JobDag model = dag;
  model.stage(scan).set_input_bytes(64_MB);
  model.stage(scan).set_output_bytes(64_MB);
  model.stage(agg).set_input_bytes(64_MB);
  model.stage(agg).set_output_bytes(8_MB);
  model.edge_between(scan, agg).bytes = 64_MB;
  workload::PhysicsParams physics;
  physics.store = storage::redis_model();
  workload::apply_physics(model, physics);
  sub.model_dag = std::move(model);
  return sub;
}

TEST(HttpEndpointTest, ScrapesConcurrentlyWithJobTraffic) {
  obs::set_observability_enabled(true);
  auto cl = cluster::Cluster::uniform(2, 4);
  storage::MemStore store(storage::redis_model(), "redis");
  ServiceOptions options;
  options.external = storage::redis_model();
  JobService svc(cl, store, options);

  HttpEndpoint::Options opt;
  opt.service = &svc;
  HttpEndpoint ep(opt);
  ASSERT_TRUE(ep.start().is_ok());

  std::vector<JobId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = svc.submit(make_sleep_job("job" + std::to_string(i), 0.05));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }

  // Scrape continuously while the jobs run; every response must be
  // well-formed at every point of the lifecycle.
  std::size_t done_seen = 0;
  for (int round = 0; round < 20; ++round) {
    const std::string metrics = body_of(http_get(ep.port(), "/metrics"));
    const Status valid = obs::validate_prometheus_text(metrics);
    EXPECT_TRUE(valid.is_ok()) << valid.to_string();

    const auto jobs = obs::parse_json(body_of(http_get(ep.port(), "/jobs")));
    ASSERT_TRUE(jobs.ok());
    const obs::JsonArray& rows = jobs->find("jobs")->as_array();
    EXPECT_LE(rows.size(), 3u);
    done_seen = 0;
    for (const obs::JsonValue& row : rows) {
      ASSERT_TRUE(row.is_object());
      EXPECT_TRUE(row.find("state")->is_string());
      if (row.find("state")->as_string() == "DONE") ++done_seen;
    }
    if (done_seen == 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  for (JobId id : ids) {
    const auto outcome = svc.wait(id);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->state, JobState::kDone);
  }
  svc.drain();

  // Post-drain snapshot: all jobs terminal, slot accounting restored.
  const auto jobs = obs::parse_json(body_of(http_get(ep.port(), "/jobs")));
  ASSERT_TRUE(jobs.ok());
  EXPECT_EQ(jobs->find("jobs")->as_array().size(), 3u);
  EXPECT_EQ(jobs->find("free_slots")->as_number(), jobs->find("total_slots")->as_number());
  ep.stop();
  obs::set_observability_enabled(false);
}

}  // namespace
}  // namespace ditto::service
