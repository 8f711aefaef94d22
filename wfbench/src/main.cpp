// wfbench: one run of one workload of the wfqd benchmark.
//
//   wfbench --workload adhoc|monitor|backfill --seed N --seconds S
//           --trace 0|1 --wfqd PATH --work-dir DIR
//           [--tiny] [--inject-wrong]
//
// --seconds sets the amount of work, not a timer: every workload issues a
// fixed, seeded number of operations proportional to it. The lines of
// standard output are the report; its last line is the JSON result whose
// "values" run.py turns into BENCHMARK.json metrics.
// Exit 0 when every check passed, 1 when an answer was wrong, 2 when the
// run could not be made.

#include <cstdlib>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: wfbench --workload adhoc|monitor|backfill --seed N "
               "--seconds S --trace 0|1 --wfqd PATH --work-dir DIR "
               "[--tiny] [--inject-wrong]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  wfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      opt.seconds = std::atoi(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--wfqd" && has_value) {
      opt.wfqd = argv[++i];
    } else if (flag == "--work-dir" && has_value) {
      opt.work_dir = argv[++i];
    } else if (flag == "--tiny") {
      opt.tiny = true;
    } else if (flag == "--inject-wrong") {
      opt.inject_wrong = true;
    } else {
      usage();
    }
  }
  if (opt.workload.empty() || opt.wfqd.empty() || opt.work_dir.empty() ||
      opt.seconds < 1) {
    usage();
  }

  try {
    std::filesystem::create_directories(opt.work_dir);
    wfbench::Report report(opt);
    wfbench::Tally tally;
    if (opt.workload == "adhoc") {
      wfbench::run_adhoc(opt, report, tally);
    } else if (opt.workload == "monitor") {
      wfbench::run_monitor(opt, report, tally);
    } else if (opt.workload == "backfill") {
      wfbench::run_backfill(opt, report, tally);
    } else {
      usage();
    }
    report.print(tally.attempted.load(), tally.failed.load(),
                 tally.wrong.load());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "wfbench: " << e.what() << "\n";
    return 2;
  }
}
