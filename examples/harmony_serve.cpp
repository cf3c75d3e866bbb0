// harmony_serve: the plan-as-a-service daemon. Listens on a Unix-domain or
// loopback TCP socket, answers length-prefixed JSON planning requests, and
// fronts Algorithm 1 with the sharded content-addressed plan cache — repeat
// requests for the same (model, machine, search knobs) are answered from the
// cache in microseconds instead of re-running the search.
//
//   ./build/examples/harmony_serve --unix=/tmp/harmony.sock
//   ./build/examples/harmony_serve --tcp=7077 --workers=4 --cache-mb=128
//
// N daemons form a cooperative cache tier (DESIGN.md §13) when given the
// member list and their own endpoint; --cache-dir adds the disk-backed warm
// store so a restart comes back warm:
//
//   ./build/examples/harmony_serve --unix=/run/h0.sock
//       --self=unix:/run/h0.sock
//       --peers=unix:/run/h0.sock,unix:/run/h1.sock,unix:/run/h2.sock
//       --cache-dir=/var/cache/harmony/h0
//
// Stop it with SIGINT/SIGTERM or a client's --shutdown; both drain in-flight
// searches before exiting.

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "serve/server.h"

namespace {

std::atomic<bool> g_interrupted{false};

void OnSignal(int) { g_interrupted.store(true); }

int Usage() {
  std::cerr
      << "usage: harmony_serve (--unix=<path> | --tcp=<port>)\n"
         "                     [--workers=N] [--cache-mb=N] [--max-pending=N]\n"
         "                     [--loop-threads=N] [--idle-timeout-ms=N]\n"
         "                     [--self=<ep> --peers=<ep>,<ep>,...]\n"
         "                     [--cache-dir=<dir>] [--disk-cap-mb=N]\n"
         "  --unix        listen on a Unix-domain socket at <path>\n"
         "  --tcp         listen on loopback TCP <port> (0 picks a free port)\n"
         "  --workers     search worker threads (default 2)\n"
         "  --cache-mb    plan cache budget in MiB (default 64; 0 disables)\n"
         "  --max-pending admission bound before load-shedding (default 64)\n"
         "  --loop-threads    reactor event-loop threads (default 1)\n"
         "  --idle-timeout-ms reap connections idle this long (default\n"
         "                    300000; 0 disables)\n"
         "  --self        this daemon's tier endpoint (unix:<path> or\n"
         "                tcp:<host>:<port>); requires --peers\n"
         "  --peers       every tier member (including self), comma-separated;\n"
         "                the list must be spelled identically tier-wide\n"
         "  --cache-dir   disk-backed warm store directory (restart-warm)\n"
         "  --disk-cap-mb warm store byte cap in MiB (default 256; 0 = none)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace harmony;
  serve::ServeOptions service_options;
  serve::ServerOptions server_options;
  cluster::ClusterOptions cluster_options;
  // The daemon (unlike embedded/test servers) defaults the idle reaper on:
  // a long-running service should not let forgotten clients pin fds forever.
  server_options.idle_timeout_ms = 300000;
  std::string peers_csv, cache_dir;
  long disk_cap_mb = 256;
  bool have_endpoint = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--unix=", 7) == 0) {
      server_options.unix_path = argv[i] + 7;
      have_endpoint = true;
    } else if (std::strncmp(argv[i], "--tcp=", 6) == 0) {
      server_options.use_tcp = true;
      server_options.tcp_port = std::atoi(argv[i] + 6);
      have_endpoint = true;
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      service_options.num_workers = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--cache-mb=", 11) == 0) {
      const long mb = std::atol(argv[i] + 11);
      service_options.cache_bytes = mb > 0 ? static_cast<size_t>(mb) << 20 : 0;
    } else if (std::strncmp(argv[i], "--max-pending=", 14) == 0) {
      service_options.max_pending = std::atoi(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--loop-threads=", 15) == 0) {
      server_options.loop_threads = std::atoi(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--idle-timeout-ms=", 18) == 0) {
      server_options.idle_timeout_ms = std::atoi(argv[i] + 18);
    } else if (std::strncmp(argv[i], "--self=", 7) == 0) {
      cluster_options.self = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--peers=", 8) == 0) {
      peers_csv = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--cache-dir=", 12) == 0) {
      cache_dir = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--disk-cap-mb=", 14) == 0) {
      disk_cap_mb = std::atol(argv[i] + 14);
    } else {
      return Usage();
    }
  }
  if (!have_endpoint) return Usage();
  if (!peers_csv.empty() != !cluster_options.self.empty()) {
    std::cerr << "harmony_serve: --self and --peers go together\n";
    return Usage();
  }

  // Cluster tier membership (optional): a disk store alone makes a
  // restart-warm standalone daemon; peers add owner routing and peer-fill.
  std::unique_ptr<cluster::DiskStore> disk;
  if (!cache_dir.empty()) {
    cluster::DiskStoreOptions disk_options;
    disk_options.dir = cache_dir;
    disk_options.byte_cap = disk_cap_mb > 0
                                ? static_cast<uint64_t>(disk_cap_mb) << 20
                                : 0;
    auto opened = cluster::DiskStore::Open(std::move(disk_options));
    if (!opened.ok()) {
      std::cerr << "harmony_serve: " << opened.status() << "\n";
      return 1;
    }
    disk = std::move(opened).value();
  }
  std::unique_ptr<cluster::ClusterNode> node;
  if (!peers_csv.empty() || disk != nullptr) {
    if (!peers_csv.empty()) {
      auto members = cluster::ParseMemberList(peers_csv);
      if (!members.ok()) {
        std::cerr << "harmony_serve: " << members.status() << "\n";
        return 1;
      }
      cluster_options.members = std::move(members).value();
    }
    cluster_options.disk = disk.get();
    node = std::make_unique<cluster::ClusterNode>(cluster_options);
    service_options.fill = node.get();
  }

  serve::PlanService service(service_options);
  if (node != nullptr) {
    node->set_service(&service);
    server_options.extension = [&node](const std::string& type,
                                       const json::Value& envelope) {
      return node->HandleEnvelope(type, envelope);
    };
    server_options.stats_extension = [&node]() { return node->StatsJson(); };
  }
  serve::PlanServer server(&service, server_options);
  const Status listening = server.Listen();
  if (!listening.ok()) {
    std::cerr << "listen failed: " << listening << "\n";
    return 1;
  }

  // The socket layer already sends with MSG_NOSIGNAL, but ignore SIGPIPE
  // process-wide as well: a client vanishing mid-response must never take
  // the daemon down with it.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  server.Start();
  if (!server_options.unix_path.empty()) {
    std::cout << "harmony_serve: listening on " << server_options.unix_path
              << std::endl;
  } else {
    std::cout << "harmony_serve: listening on 127.0.0.1:"
              << server.bound_port() << std::endl;
  }
  if (node != nullptr && !cluster_options.members.empty()) {
    std::cout << "harmony_serve: tier member " << cluster_options.self
              << " of " << cluster_options.members.size() << std::endl;
  }

  // The reactor loops run on their own threads; this thread only watches for
  // a signal or a client-initiated shutdown request, then performs the stop
  // itself (a loop thread cannot join its own teardown).
  while (!g_interrupted.load() && !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();

  const serve::ServiceStats stats = service.stats();
  const serve::CacheStats cache = service.cache_stats();
  std::cout << "harmony_serve: drained. " << stats.completed
            << " responses (" << stats.cache_hits << " cache hits, "
            << stats.filled << " tier fills, " << stats.searches
            << " searches, " << stats.rejected
            << " rejected); cache " << cache.entries << " entries / "
            << cache.bytes << " bytes, " << cache.evictions << " evictions\n";
  if (node != nullptr) {
    const cluster::ClusterStats cs = node->stats();
    std::cout << "harmony_serve: tier peer-fill " << cs.peer_fill_hits << "/"
              << cs.peer_fill_attempts << " hits, disk " << cs.disk_hits
              << " hits / " << cs.disk_misses << " misses, served peers "
              << (cs.cache_get_served_memory + cs.cache_get_served_disk)
              << "\n";
  }
  return 0;
}
