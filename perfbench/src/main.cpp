//===- perfbench/src/main.cpp - End-to-end benchmark program --------------===//
//
// Part of KAST, under the MIT License.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload of the end-to-end benchmark and prints, in order:
// one "metric <name> <value> <unit>" line per metric the run measured,
// a provenance line, and as the last line
//
//   outcome {"correct": ..., "attempted": ..., "failed": ...}
//
// perfbench/run.py builds this program, is the command to use, and turns
// this output into the result line, taking its metrics by the names
// BENCHMARK.json lists:
//
//   python3 perfbench/run.py --workload serve_routed --seed 1
//       --seconds 15 --trace 0
//
//===----------------------------------------------------------------------===//

#include "Serving.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <unistd.h>

using namespace kbench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_routed|ingest_mixed|cluster_kast "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--spans FILE] [--sha SHA] [--dirty 0|1]\n",
               Argv0);
  return 2;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S)
    if (C == '"' || C == '\\')
      Out += '\\', Out += C;
    else if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  std::map<std::string, std::string> Args;
  for (int I = 1; I + 1 < Argc; I += 2) {
    if (std::strncmp(Argv[I], "--", 2) != 0)
      return usage(Argv[0]);
    Args[Argv[I] + 2] = Argv[I + 1];
  }
  if (Argc % 2 == 0 || !Args.count("workload") || !Args.count("seed") ||
      !Args.count("seconds") || !Args.count("trace") ||
      !Args.count("work-dir"))
    return usage(Argv[0]);

  const std::string Workload = Args["workload"];
  Outcome (*Run)(const RunConfig &) = nullptr;
  if (Workload == "serve_routed")
    Run = runServeRouted;
  else if (Workload == "ingest_mixed")
    Run = runIngestMixed;
  else if (Workload == "cluster_kast")
    Run = runClusterKast;
  else
    return usage(Argv[0]);

  RunConfig C;
  C.Seed = std::strtoull(Args["seed"].c_str(), nullptr, 10);
  C.Seconds = std::strtod(Args["seconds"].c_str(), nullptr);
  C.Traced = Args["trace"] == "1";
  if (!(C.Seconds > 0.0) || (!C.Traced && Args["trace"] != "0"))
    return usage(Argv[0]);
  C.WorkDir = Args["work-dir"] + "/" + Workload + "-" + Args["seed"] + "-" +
              std::to_string(::getpid());
  std::error_code Ec;
  std::filesystem::create_directories(C.WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", C.WorkDir.c_str(),
                 Ec.message().c_str());
    return 1;
  }

  tracer::setEnabled(C.Traced);
  Outcome Out = Run(C);
  std::filesystem::remove_all(C.WorkDir, Ec);
  if (C.Traced)
    reportFrontEndLayers(Out, analyzeTrace(Args["spans"]));

  bool Finite = true;
  for (const Metric &M : Out.Metrics) {
    std::printf("metric %s %.17g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
    Finite = Finite && std::isfinite(M.Value);
  }
  for (const std::string &Note : Out.Notes)
    std::fprintf(stderr, "check failed: %s\n", Note.c_str());

  std::printf("provenance {\"sha\": \"%s\", \"dirty\": %s, \"build_type\": "
              "\"%s\", \"nproc\": %u, \"workload\": \"%s\", \"seed\": %llu}\n",
              jsonEscape(Args.count("sha") ? Args["sha"] : "unknown").c_str(),
              Args.count("dirty") ? (Args["dirty"] == "0" ? "false" : "true")
                                  : "null",
              KAST_BENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              Workload.c_str(), static_cast<unsigned long long>(C.Seed));
  const bool Correct = Out.Failed == 0 && Finite && Out.Attempted > 0;
  std::printf("outcome {\"correct\": %s, \"attempted\": %llu, "
              "\"failed\": %llu}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(Out.Attempted, 1)),
              static_cast<unsigned long long>(Out.Failed));
  std::fflush(stdout);
  return 0;
}
