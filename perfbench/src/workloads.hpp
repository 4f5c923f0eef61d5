#pragma once
// The four workloads and the query sets they draw from.  Every input is a
// function of the workload seed; the program only ever sees the generated
// queries.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "netemu/service/query.hpp"

namespace perfbench {

/// One generated query: its request document and parsed form.
struct GenQuery {
  std::string line;  ///< request line as sent on the wire
  netemu::Query query;
};
GenQuery make_query(const std::string& line);

/// Merges classes of queries into one sequence: each class is shuffled by
/// `seed`, then the classes are interleaved in proportion to their sizes,
/// so every prefix of the sequence (whatever part a run gets through)
/// holds the classes in the pool's proportions and runs differ only in
/// which members they draw.
std::vector<GenQuery> stratified(std::vector<std::vector<GenQuery>> classes,
                                 std::uint64_t seed);

/// Pool of cold estimates for estimate_cold: mesh32x32, butterfly6 and
/// tree9 at 8 trials, query seeds from a fixed range, farthest-first
/// except every eighth fifo and every eighth random.  The sequence is
/// stratified by family and arbitration; it starts with one farthest-first
/// query per family.  Every pool query has a recorded digest.
std::vector<GenQuery> estimate_pool();
std::vector<GenQuery> estimate_sequence(std::uint64_t seed);

/// Pool of scattered mesh estimates for fleet_scatter (16x16, 16 trials).
/// The sequence is stratified by how many of a query's shards share a
/// backend under rendezvous hashing over `backends` backends, since that
/// sets a scatter's latency.
std::vector<GenQuery> fleet_pool();
std::vector<GenQuery> fleet_sequence(std::uint64_t seed, unsigned backends);

/// Builds digests.json: the estimate digest of every pool query, computed
/// one query per thread without a trial pool (the unsharded serial path).
int make_digests(const std::string& path, unsigned threads);

/// Workload entry points.  run_* is the untraced measurement that yields the
/// end-to-end metrics; ledger_* is the traced run that yields the per-layer
/// metrics, including <workload>.unaccounted_share and
/// <workload>.trace_overhead_share.
void run_estimate_cold(const Args& args, Record& rec);
void ledger_estimate_cold(const Args& args, Record& rec);
void run_request_hot(const Args& args, Record& rec);
void ledger_request_hot(const Args& args, Record& rec);
void run_request_mixed(const Args& args, Record& rec);
void ledger_request_mixed(const Args& args, Record& rec);
void run_fleet_scatter(const Args& args, Record& rec);
void ledger_fleet_scatter(const Args& args, Record& rec);

/// Checks one estimate result against the digest book; records a wrong
/// answer when it differs or has no digest.
bool check_estimate(const DigestBook& book, const GenQuery& q,
                    const netemu::Json& result, Record& rec);

}  // namespace perfbench
