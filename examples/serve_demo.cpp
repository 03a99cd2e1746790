// fairmatchd demo: a long-lived serving core over resident indexes.
//
// One dataset is opened cold (R-tree bulk-loaded, function lists packed
// into an immutable image), then a mixed burst of requests — plain SB,
// packed-image probes, brute force — is submitted to a 4-lane server.
// Every response carries the matching plus queue/exec latency, and the
// demo closes with the admission-control behavior: a tiny server is
// deliberately overloaded so some requests come back kOverloaded
// instead of piling onto the queue.
//
// Build & run:   ./build/examples/example_serve_demo
#include <algorithm>
#include <cstdio>
#include <vector>

#include "fairmatch/data/synthetic.h"
#include "fairmatch/serve/dataset_registry.h"
#include "fairmatch/serve/server.h"

using namespace fairmatch;
using namespace fairmatch::serve;

namespace {

AssignmentProblem DemoProblem() {
  Rng rng(2009);
  std::vector<Point> points =
      GeneratePoints(Distribution::kAntiCorrelated, 4000, 3, &rng);
  FunctionSet fns = GenerateFunctions(150, 3, &rng);
  AssignPriorities(&fns, 3, &rng);
  return MakeProblem(std::move(points), std::move(fns), 1);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

}  // namespace

int main() {
  const AssignmentProblem problem = DemoProblem();

  // --- open the dataset: cold build, then a warm share -------------
  DatasetRegistry registry;
  DatasetHandle ds = registry.Open("demo", problem);
  std::printf("cold open: built R-tree + packed image in %.1f ms "
              "(%.1f MiB resident)\n",
              ds->build_ms(),
              static_cast<double>(ds->memory_bytes()) / (1024.0 * 1024.0));
  registry.Open("demo", problem);  // warm: shares, builds nothing
  std::printf("warm open: shared the resident structures "
              "(%lld warm / %lld cold)\n\n",
              static_cast<long long>(registry.warm_opens()),
              static_cast<long long>(registry.cold_opens()));

  // --- serve a mixed burst on 4 lanes ------------------------------
  ServerOptions options;
  options.lanes = 4;
  options.max_queue = 128;
  Server server(&registry, options);

  const std::vector<std::string> mix = {"SB", "SB-Packed", "SB-TwoSkylines",
                                        "SB-alt"};
  const int kRequests = 64;
  std::vector<ResponseFuture> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.dataset = "demo";
    request.matcher = mix[static_cast<size_t>(i) % mix.size()];
    futures.push_back(server.Submit(std::move(request)));
  }

  std::vector<double> total_ms;
  size_t pairs = 0;
  for (ResponseFuture& future : futures) {
    const Response& response = future.Wait();
    if (!response.status.ok()) {
      std::printf("request failed: %s\n", response.status.message.c_str());
      return 1;
    }
    total_ms.push_back(response.total_ms);
    pairs = response.stats.pairs;  // same problem -> same pair count
  }
  std::printf("served %d requests on %d lanes: p50=%.2f ms  p99=%.2f ms  "
              "(%zu pairs per matching)\n",
              kRequests, server.lanes(), Percentile(total_ms, 0.50),
              Percentile(total_ms, 0.99), pairs);
  server.Close();

  // --- admission control: overload a tiny server -------------------
  ServerOptions tiny;
  tiny.lanes = 1;
  tiny.max_queue = 4;
  Server small(&registry, tiny);
  std::vector<ResponseFuture> burst;
  for (int i = 0; i < 16; ++i) {
    Request request;
    request.dataset = "demo";
    request.matcher = "SB";
    burst.push_back(small.Submit(std::move(request)));
  }
  int ok = 0, overloaded = 0;
  for (ResponseFuture& future : burst) {
    const Response& response = future.Wait();
    if (response.status.ok()) {
      ++ok;
    } else if (response.status.code == ServeCode::kOverloaded) {
      ++overloaded;
    }
  }
  small.Close();
  std::printf("\noverload burst on a 1-lane/4-queue server: "
              "%d completed, %d rejected kOverloaded (never queued "
              "unboundedly)\n",
              ok, overloaded);

  const ServerCounters counters = small.counters();
  std::printf("counters: accepted=%lld rejected=%lld completed=%lld\n",
              static_cast<long long>(counters.accepted),
              static_cast<long long>(counters.rejected),
              static_cast<long long>(counters.completed));
  return 0;
}
