// bgpcc_bench: the perfbench harness binary (run.py drives it).
//
//   bgpcc_bench gen --seed N [--small] --out DIR
//   bgpcc_bench run --workload W --data DIR --tmp DIR --seconds S
//                   --threads T --trace 0|1 [--trace-out FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

namespace perfbench {
int generate_main(std::uint64_t seed, bool small, const std::string& out_dir);
int run_main(const std::string& workload, const std::string& data_dir,
             const std::string& tmp_dir, const std::string& trace_out,
             double seconds, unsigned threads, bool trace);
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s gen|run --key value ...\n", argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
      return 2;
    }
    if (key == "--small") {
      args[key] = "1";
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return 2;
    }
  }
  auto get = [&](const char* key) {
    auto it = args.find(key);
    if (it == args.end()) {
      throw std::runtime_error(std::string("missing ") + key);
    }
    return it->second;
  };
  try {
    if (command == "gen") {
      return perfbench::generate_main(std::stoull(get("--seed")),
                                      args.count("--small") != 0, get("--out"));
    }
    if (command == "run") {
      return perfbench::run_main(
          get("--workload"), get("--data"), get("--tmp"),
          args.count("--trace-out") ? args["--trace-out"] : "",
          std::stod(get("--seconds")),
          static_cast<unsigned>(std::stoul(get("--threads"))),
          get("--trace") == "1");
    }
    std::fprintf(stderr, "unknown command %s\n", command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpcc_bench %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
