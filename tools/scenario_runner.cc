// Versioned scenario suite runner (DESIGN.md §10).
//
// A scenario is a flat JSON file under scenarios/ pinning one deterministic
// simulation configuration to the FNV-1a hash of its canonical report:
//
//   { "name": "storm-serial-baseline", "kind": "storm",
//     "nodes": 16, "accesses": 120, "epochs": 2, "threads": 0,
//     "expect": "0x1234abcd5678ef90" }
//
// Kinds:
//   storm  — RunStorm over StormOptions; report = StormReport().
//            Optional cross-checks: "compare_threads" re-runs at another
//            worker count and requires byte-equal reports; "verify_resume"
//            snapshots at epoch 1, resumes in-process, and requires the
//            resumed report byte-equal too.
//   golden — the 10k-page DSM golden trace; keys hints/replicate/adaptive
//            toggle fast paths, "empty_plan" attaches an empty FaultPlan,
//            "snapshot_roundtrip" save/loads the engine mid-trace. Report =
//            GoldenTraceReport().
//   npb    — one NPB multi-process harness run; keys bench/scale/vcpus/seed.
//            Report = end time + integer fault counters.
//   cluster — the multi-tenant marketplace (cluster orchestrator, DESIGN.md
//            §11) over MarketplaceOptions; report = MarketplaceReport().
//            Supports the same "compare_threads" / "verify_resume"
//            cross-checks as storm.
//
// storm and cluster scenarios take every key of their options struct, with
// the spelling and units of fvsim's flags ("cache_slots", "span_ms",
// "fault_crash": "3@0.15", ...; `fvsim list` prints them all), plus
// "threads" (the worker count; storm's 0 is the serial engine).
//
// Usage:
//   scenario_runner FILE...          run, compare to "expect", exit 0/1
//   scenario_runner --print FILE...  print report + hash (pin generation)
//
// On mismatch the full canonical report is printed so the diff is in the CI
// log, and ci.sh archives it under build-ci/artifacts/.

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/cluster/marketplace.h"
#include "src/sim/fault_plan.h"
#include "src/sim/options_text.h"
#include "src/sim/snapshot.h"
#include "src/workload/dsmstorm.h"
#include "src/workload/goldentrace.h"
#include "src/workload/npb.h"

namespace fragvisor {
namespace {

// --- Flat JSON subset parser ---------------------------------------------
// One object, string keys, scalar values (string / number / true / false).
// Arrays and nesting are rejected — scenarios are deliberately flat so the
// format stays greppable and diffable.

bool ParseFlatJson(const std::string& text, KeyValues* out, std::string* error) {
  size_t i = 0;
  const auto skip = [&]() {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  const auto fail = [&](const std::string& why) {
    *error = why + " (at byte " + std::to_string(i) + ")";
    return false;
  };
  const auto parse_string = [&](std::string* s) {
    ++i;  // opening quote
    s->clear();
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') {
        return false;  // escapes unsupported — keep scenario names plain
      }
      s->push_back(text[i++]);
    }
    if (i >= text.size()) {
      return false;
    }
    ++i;  // closing quote
    return true;
  };

  skip();
  if (i >= text.size() || text[i] != '{') {
    return fail("expected '{'");
  }
  ++i;
  skip();
  if (i < text.size() && text[i] == '}') {
    ++i;
    return true;
  }
  while (true) {
    skip();
    if (i >= text.size() || text[i] != '"') {
      return fail("expected key string");
    }
    std::string key;
    if (!parse_string(&key)) {
      return fail("unterminated or escaped key");
    }
    skip();
    if (i >= text.size() || text[i] != ':') {
      return fail("expected ':'");
    }
    ++i;
    skip();
    std::string value;
    if (i < text.size() && text[i] == '"') {
      if (!parse_string(&value)) {
        return fail("unterminated or escaped value");
      }
    } else {
      while (i < text.size() && text[i] != ',' && text[i] != '}' &&
             !std::isspace(static_cast<unsigned char>(text[i]))) {
        value.push_back(text[i++]);
      }
      if (value.empty()) {
        return fail("expected value");
      }
      if (value == "null" || value[0] == '[' || value[0] == '{') {
        return fail("unsupported value '" + value + "' (scenarios are flat scalars)");
      }
    }
    if (out->Has(key)) {
      return fail("duplicate key '" + key + "'");
    }
    out->Set(key, value);
    skip();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == '}') {
      ++i;
      skip();
      if (i != text.size()) {
        return fail("trailing bytes after '}'");
      }
      return true;
    }
    return fail("expected ',' or '}'");
  }
}

// --- Scenario kinds -------------------------------------------------------

// Reads a storm or cluster scenario's options; false, with a message, when
// they break a rule of their struct (the file is unusable).
template <typename Options>
bool ReadValidOptions(const std::string& path, KeyValues& p, Options* opts) {
  ReadOptions(p, *opts);
  if (const char* why = opts->Invalid()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), why);
    return false;
  }
  return true;
}

bool RunStormScenario(const StormOptions& so, KeyValues& p, std::string* report,
                      std::string* error) {
  const int threads = p.Get("threads", 0);

  *report = StormReport(RunStorm(so, threads));

  if (p.Has("compare_threads")) {
    const int other = p.Get("compare_threads", 0);
    const std::string other_report = StormReport(RunStorm(so, other));
    if (other_report != *report) {
      *error = "report at --threads " + std::to_string(threads) +
               " differs from --threads " + std::to_string(other);
      return false;
    }
  }
  if (p.Get("verify_resume", false)) {
    std::string snapshot;
    StormRunConfig save_cfg;
    save_cfg.snapshot_out = &snapshot;
    save_cfg.snapshot_epoch = 1;
    RunStormEx(so, threads, save_cfg);
    StormRunConfig load_cfg;
    load_cfg.snapshot_in = &snapshot;
    std::string load_error;
    load_cfg.error = &load_error;
    const std::string resumed = StormReport(RunStormEx(so, threads, load_cfg));
    if (!load_error.empty()) {
      *error = "resume failed: " + load_error;
      return false;
    }
    if (resumed != *report) {
      *error = "resumed report differs from the uninterrupted run";
      return false;
    }
  }
  return true;
}

bool RunClusterScenario(const MarketplaceOptions& mo, KeyValues& p, std::string* report,
                        std::string* error) {
  const int threads = p.Get("threads", 1);

  *report = MarketplaceReport(RunMarketplace(mo, threads));

  if (p.Has("compare_threads")) {
    const int other = p.Get("compare_threads", 0);
    const std::string other_report = MarketplaceReport(RunMarketplace(mo, other));
    if (other_report != *report) {
      *error = "report at --threads " + std::to_string(threads) +
               " differs from --threads " + std::to_string(other);
      return false;
    }
  }
  if (p.Get("verify_resume", false)) {
    std::string snapshot;
    MarketplaceRunConfig save_cfg;
    save_cfg.snapshot_out = &snapshot;
    save_cfg.snapshot_epoch = 1;
    RunMarketplaceEx(mo, threads, save_cfg);
    MarketplaceRunConfig load_cfg;
    load_cfg.snapshot_in = &snapshot;
    std::string load_error;
    load_cfg.error = &load_error;
    const std::string resumed = MarketplaceReport(RunMarketplaceEx(mo, threads, load_cfg));
    if (!load_error.empty()) {
      *error = "resume failed: " + load_error;
      return false;
    }
    if (resumed != *report) {
      *error = "resumed report differs from the uninterrupted run";
      return false;
    }
  }
  return true;
}

bool RunGoldenScenario(KeyValues& p, std::string* report, std::string* error) {
  const bool hints = p.Get("hints", false);
  const bool replicate = p.Get("replicate", false);
  const bool adaptive = p.Get("adaptive", false);
  const auto mutate = [&](DsmEngine::Options& o) {
    o.owner_hints = hints;
    o.read_mostly_replication = replicate;
    o.adaptive_granularity = adaptive;
  };
  FaultPlan plan(0xFEED);
  FaultPlan* attached = p.Get("empty_plan", false) ? &plan : nullptr;
  const GoldenTraceResult r = RunGoldenTrace(attached, mutate, p.Get("snapshot_roundtrip", false));
  if (attached != nullptr && !plan.empty()) {
    *error = "the empty fault plan accreted entries";
    return false;
  }
  *report = GoldenTraceReport(r);
  return true;
}

bool RunNpbScenario(KeyValues& p, std::string* report, std::string* error) {
  const std::string name = p.Get<std::string>("bench", "CG");
  const NpbProfile profile = ScaleNpb(NpbByName(name), p.Get("scale", 0.1));
  bench::Setup setup;
  setup.vcpus = p.Get("vcpus", 3);
  const uint64_t seed = p.Get<uint64_t>("seed", 1);
  bench::FaultReport faults;
  const TimeNs end = bench::RunNpbMultiProcess(setup, profile, seed, nullptr, &faults);
  (void)error;
  std::string out;
  const auto line = [&out](const char* key, uint64_t v) {
    out += key;
    out += '=';
    out += std::to_string(v);
    out += '\n';
  };
  line("end_ns", static_cast<uint64_t>(end));
  line("dropped", faults.dropped);
  line("duplicated", faults.duplicated);
  line("delayed", faults.delayed);
  line("crashes", faults.crashes);
  line("restarts", faults.restarts);
  line("retransmits", faults.retransmits);
  line("timeouts", faults.timeouts);
  line("send_failures", faults.send_failures);
  line("dups_suppressed", faults.dups_suppressed);
  line("dsm_retries", faults.dsm_retries);
  line("dsm_absorbed", faults.dsm_absorbed);
  line("dsm_write_aborts", faults.dsm_write_aborts);
  line("dsm_pages_reclaimed", faults.dsm_pages_reclaimed);
  *report = out;
  return true;
}

// --- Driver ---------------------------------------------------------------

bool ReadFile(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open scenario '%s'\n", path.c_str());
    return false;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

std::string HashHex(uint64_t h) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h);
  return buf;
}

// 0 = pass, 1 = mismatch/failure, 2 = unusable scenario file.
int RunScenarioFile(const std::string& path, bool print_only) {
  std::string text;
  if (!ReadFile(path, &text)) {
    return 2;
  }
  KeyValues p;
  std::string error;
  if (!ParseFlatJson(text, &p, &error)) {
    std::fprintf(stderr, "%s: parse error: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  const std::string name = p.Get("name", path);
  const std::string kind = p.Get<std::string>("kind", "");
  const std::string expect = p.Get<std::string>("expect", "");

  std::string report;
  bool ok = false;
  StormOptions so;
  MarketplaceOptions mo;
  if (kind == "storm") {
    if (!ReadValidOptions(path, p, &so)) {
      return 2;
    }
    ok = RunStormScenario(so, p, &report, &error);
  } else if (kind == "golden") {
    ok = RunGoldenScenario(p, &report, &error);
  } else if (kind == "npb") {
    ok = RunNpbScenario(p, &report, &error);
  } else if (kind == "cluster") {
    if (!ReadValidOptions(path, p, &mo)) {
      return 2;
    }
    ok = RunClusterScenario(mo, p, &report, &error);
  } else {
    std::fprintf(stderr, "%s: unknown kind '%s'\n", path.c_str(), kind.c_str());
    return 2;
  }
  // A typoed key would silently pin the default configuration; refuse it.
  if (ok && !p.Check(&error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  if (!ok) {
    std::fprintf(stderr, "SCENARIO %s FAILED: %s\n", name.c_str(), error.c_str());
    return 1;
  }

  const std::string hash = HashHex(SnapshotHashString(report));
  if (print_only) {
    std::printf("# scenario %s (%s)\n%s%s\n", name.c_str(), kind.c_str(), report.c_str(),
                hash.c_str());
    return 0;
  }
  if (expect.empty()) {
    std::fprintf(stderr, "%s: no \"expect\" pin; generate one with --print\n", path.c_str());
    return 2;
  }
  if (hash != expect) {
    std::printf("SCENARIO %s MISMATCH: expected %s got %s\ncanonical report:\n%s",
                name.c_str(), expect.c_str(), hash.c_str(), report.c_str());
    return 1;
  }
  std::printf("SCENARIO %s OK %s\n", name.c_str(), hash.c_str());
  return 0;
}

}  // namespace
}  // namespace fragvisor

int main(int argc, char** argv) {
  bool print_only = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print") {
      print_only = true;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "usage: scenario_runner [--print] FILE...\n");
    return 2;
  }
  int worst = 0;
  for (const std::string& f : files) {
    const int rc = fragvisor::RunScenarioFile(f, print_only);
    worst = std::max(worst, rc);
  }
  return worst;
}
