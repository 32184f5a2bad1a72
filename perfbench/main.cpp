// perfbench — the repository benchmark. One process runs one workload:
//
//   perfbench --workload <text_bsp|graph_sync|ps_async|serve_ann>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--stamp <text>]
//
// It prints a stamp line (code identity, nproc, SIMD tier, build type,
// layout, seed), human-readable detail on stderr, and as the last stdout
// line one JSON object {correct, attempted, failed, metrics}. The exit code
// is 0 only when every output check passed. run.py builds this binary and
// is the documented entry point (README.md).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>
#include <thread>

#include "harness.h"
#include "util/simd.h"

using namespace perfbench;

namespace {

struct WorkloadDef {
  const char* name;
  const char* layout;  // hosts x threads during the timed phase
  Result (*run)(const Args&, Tracer&);
};

const WorkloadDef kWorkloads[] = {
    {"text_bsp", "4 hosts x 1 thread", runTextBsp},
    {"graph_sync", "4 hosts x 1 thread", runGraphSync},
    {"ps_async", "1 server + 3 workers x 1 thread", runPsAsync},
    {"serve_ann", "2 ranks + 2 clients", runServeAnn},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--stamp <text>]\n",
               msg);
  std::exit(2);
}

bool parseArgs(int argc, char** argv, Args& a, std::string& stamp) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      a.trace = val[0] == '1';
    } else if (key == "--trace-out") {
      a.traceOut = val;
    } else if (key == "--stamp") {
      stamp = val;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string stamp = "\"code\": \"unknown\"";
  if (!parseArgs(argc, argv, args, stamp)) usage("bad arguments");
  const WorkloadDef* wl = nullptr;
  for (const auto& w : kWorkloads)
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) usage("unknown workload");

  const unsigned nproc = std::thread::hardware_concurrency();
  const char* tier = gw2v::util::simd::tierName(gw2v::util::simd::activeTier());
  std::printf(
      "{\"stamp\": {%s, \"nproc\": %u, \"simd_tier\": \"%s\", \"build_type\": \"%s\", "
      "\"layout\": \"%s\", \"busy_threads\": %u, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}}\n",
      stamp.c_str(), nproc, tier, PERFBENCH_BUILD_TYPE, wl->layout, kBusyThreads, wl->name,
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (nproc < kBusyThreads) {
    std::fprintf(stderr,
                 "perfbench: WARNING: %u CPUs < %u busy threads; timed phases oversubscribe "
                 "and figures are not comparable with a 4-core baseline\n",
                 nproc, kBusyThreads);
  }

  Tracer tracer;
  tracer.setEnabled(args.trace);
  Result r;
  try {
    r = wl->run(args, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", wl->name, e.what());
    return 1;
  }

  if (args.trace && !args.traceOut.empty()) {
    if (tracer.writeChromeTrace(args.traceOut)) {
      std::fprintf(stderr, "trace written to %s\n", args.traceOut.c_str());
    } else {
      r.check(false, "cannot write trace file " + args.traceOut);
    }
  }

  // Every workload reports the whole catalogue. A per-layer name the
  // workload did not fill is a layer it bypasses and reads 0; a missing
  // end-to-end name or a stray name is a benchmark bug, not a measurement.
  const auto& defs = args.trace ? perLayerMetrics() : endToEndMetrics();
  std::set<std::string> expected;
  for (const auto& d : defs) expected.insert(d.name);
  for (const auto& [name, v] : r.metrics) {
    if (expected.count(name) == 0) {
      std::fprintf(stderr, "perfbench: stray metric %s\n", name.c_str());
      return 1;
    }
  }
  for (const auto& d : defs) {
    if (r.metrics.count(d.name) == 0) {
      if (!args.trace) {
        std::fprintf(stderr, "perfbench: metric %s missing\n", d.name.c_str());
        return 1;
      }
      r.metrics[d.name] = 0.0;
    }
  }

  for (const auto& [name, v] : r.metrics) {
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      return 1;
    }
  }

  for (const auto& f : r.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                defs[i].name.c_str(), r.metrics.at(defs[i].name), defs[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
