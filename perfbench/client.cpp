// Closed-loop load client for `gkgpu serve`.
//
//   perfbench_client --socket PATH --data DIR --jobs J --clients C
//                    --seconds T --out RESULTS.tsv
//
// C client threads, one connection per job, each submitting DIR/job_NNN.fq
// back to back through serve::MapOverSocket until T seconds have passed
// (client c starts at job c and steps by C).  Every returned SAM is
// compared byte for byte with DIR/expect_NNN.sam, the `gkgpu pipeline`
// output for the same FASTQ.  RESULTS.tsv gets one line per job: client,
// job, start and end seconds since the first send, ok (1/0), reads.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct JobResult {
  int client = 0;
  int job = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  bool ok = false;
  std::uint64_t reads = 0;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string JobPath(const std::string& dir, const char* stem, int j,
                    const char* ext) {
  char name[48];
  std::snprintf(name, sizeof(name), "/%s_%03d.%s", stem, j, ext);
  return dir + name;
}

int Run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const std::string socket_path = args["--socket"];
  const std::string dir = args["--data"];
  const std::string out_path = args["--out"];
  const int jobs = std::atoi(args["--jobs"].c_str());
  const int clients = std::atoi(args["--clients"].c_str());
  const double seconds = std::atof(args["--seconds"].c_str());
  if (socket_path.empty() || dir.empty() || out_path.empty() || jobs <= 0 ||
      clients <= 0 || seconds <= 0.0) {
    std::fputs("usage: perfbench_client --socket PATH --data DIR --jobs J "
               "--clients C --seconds T --out FILE\n",
               stderr);
    return 2;
  }
  std::vector<std::string> fastq(static_cast<std::size_t>(jobs));
  std::vector<std::string> expect(static_cast<std::size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    fastq[static_cast<std::size_t>(j)] = Slurp(JobPath(dir, "job", j, "fq"));
    expect[static_cast<std::size_t>(j)] =
        Slurp(JobPath(dir, "expect", j, "sam"));
  }

  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  std::vector<std::vector<JobResult>> per_client(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& results = per_client[static_cast<std::size_t>(c)];
      for (int j = c % jobs; Clock::now() < deadline; j = (j + clients) % jobs) {
        JobResult r;
        r.client = c;
        r.job = j;
        std::istringstream in(fastq[static_cast<std::size_t>(j)]);
        std::ostringstream sam;
        const Clock::time_point start = Clock::now();
        Clock::time_point end;
        try {
          r.reads = gkgpu::serve::MapOverSocket(socket_path, in, sam).reads;
          end = Clock::now();
          r.ok = sam.str() == expect[static_cast<std::size_t>(j)];
        } catch (const std::exception& ex) {
          end = Clock::now();
          std::fprintf(stderr, "perfbench_client: job %d: %s\n", j, ex.what());
          r.ok = false;
        }
        r.start_s = since(start);
        r.end_s = since(end);
        results.push_back(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::ofstream out(out_path);
  out << std::fixed << std::setprecision(6);
  out << "client\tjob\tstart_s\tend_s\tok\treads\n";
  for (const auto& results : per_client) {
    for (const JobResult& r : results) {
      out << r.client << '\t' << r.job << '\t' << r.start_s << '\t' << r.end_s
          << '\t' << (r.ok ? 1 : 0) << '\t' << r.reads << '\n';
    }
  }
  if (!out) throw std::runtime_error("cannot write " + out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench_client: %s\n", ex.what());
    return 1;
  }
}
