// Multi-document batch prefiltering: run one PrefilterSession per document
// concurrently against the shared immutable RuntimeTables, amortizing the
// static table build across the whole batch. Results and merged statistics
// are assembled in document order, so batch output is deterministic and
// each document's bytes equal its serial run.
//
// Every driver pulls its documents through their sessions in bounded
// InputSource chunks (StreamRun), so peak memory is O(window + chunk) per
// worker regardless of document size. Output goes to k sinks per document:
// one for single-query tables, one per unique query for multi-query
// product tables (see SinkCount in parallel/shard.h). Three shapes:
//  - StreamRun / BatchRunStreaming write each document's k projections
//    straight to caller-provided sinks, any table kind;
//  - BatchRunStreamingToFiles writes one output file per document;
//  - BatchRunStreamingMerged concatenates all documents into one sink.
// The last two take single-query tables and order output through the
// budgeted ordered-commit pipeline (SpillSink / OrderedCommitSink).

#ifndef SMPX_PARALLEL_BATCH_H_
#define SMPX_PARALLEL_BATCH_H_

#include <string>
#include <vector>

#include "common/io.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/tables.h"
#include "parallel/thread_pool.h"

namespace smpx::parallel {

struct StreamOptions {
  core::EngineOptions engine;
  /// Bytes fed to the session per Resume call; together with the engine
  /// window this bounds a streaming run's peak memory.
  size_t chunk_bytes = 1 << 20;
  /// Per-document output buffering budget for BatchRunStreamingMerged:
  /// a document's projection beyond it overflows to an unlinked temp file
  /// until the ordered-commit frontier streams it into the merged sink.
  /// 0 keeps per-document output fully in memory.
  size_t max_buffer_bytes = 0;
};

/// Prefilters one document by pulling `src` through a resumable session in
/// `chunk_bytes` slices, writing to `sinks` (SinkCount(tables) of them, in
/// MultiQueryInfo order on product tables): every sink's bytes are
/// identical to the corresponding serial run, but no more than one chunk
/// (plus the sliding window) is ever resident. Stops reading as soon as
/// the run reaches a final state, like the serial engine. `query_stats`
/// (may be null) receives per-unique-query totals on product tables and is
/// cleared for single-query tables; `stats` may be null. Fails with
/// InvalidArgument on a wrong sink count and with IoError when `src`
/// delivers fewer bytes than its size() advertises.
Status StreamRun(const core::RuntimeTables& tables, const InputSource& src,
                 const std::vector<OutputSink*>& sinks,
                 std::vector<core::QueryRunStats>* query_stats,
                 core::RunStats* stats, const StreamOptions& opts = {});

/// Streaming batch driver: one StreamRun per document, concurrently on
/// `pool`; `sinks[i]` holds document i's k sinks (written from pool
/// threads but never shared; sinks.size() must equal docs.size()).
/// Returns per-document statuses in input order; `query_stats` and
/// `stats` (each may be null) receive per-document totals in the same
/// order. Errors are isolated per document. Must not be called from a
/// pool thread.
std::vector<Status> BatchRunStreaming(
    const core::RuntimeTables& tables,
    const std::vector<const InputSource*>& docs,
    const std::vector<std::vector<OutputSink*>>& sinks,
    std::vector<std::vector<core::QueryRunStats>>* query_stats,
    std::vector<core::RunStats>* stats, ThreadPool* pool,
    const StreamOptions& opts = {});

/// Streaming batch with per-document output FILES through the
/// ordered-commit machinery: every document streams into a budgeted
/// SpillSink segment on a pool worker, and each segment is written to its
/// own output file -- opened, replayed, flushed, and closed -- only when
/// the document-order commit frontier reaches it. At most ONE output file
/// is therefore open at any moment, no matter how many documents the
/// batch holds (the pre-PR-5 driver held every output file open for the
/// whole run and died on fd limits at a few hundred documents); a
/// max_buffer_bytes budget additionally bounds resident memory, with
/// overflow parked in unlinked spill tmpfiles. Error isolation matches
/// BatchRunStreaming: per-document statuses in input order (run errors
/// take precedence over that document's file I/O errors), and a failed
/// document's file still receives the partial projection produced before
/// the failure. `stats` (may be null) receives per-document RunStats.
/// Must not be called from a pool thread.
std::vector<Status> BatchRunStreamingToFiles(
    const core::RuntimeTables& tables,
    const std::vector<const InputSource*>& docs,
    const std::vector<std::string>& out_paths,
    std::vector<core::RunStats>* stats, ThreadPool* pool,
    const StreamOptions& opts = {});

/// Merged streaming batch: every document is pulled through its session
/// in bounded chunks into a budgeted SpillSink segment, and segments
/// commit into `out` in document order the moment the frontier reaches
/// them -- workers finishing out of order park their segment on disk (not
/// memory) until the frontier arrives. Peak resident memory is
/// O(workers x (window + chunk + budget)) regardless of document and
/// projection sizes. The first (lowest-index) per-document error is
/// returned and only the clean document prefix before it reaches `out`; a
/// failed document contributes no bytes. `stats` (may be null) receives
/// the merged totals of that clean prefix. Must not be called from a pool
/// thread.
Status BatchRunStreamingMerged(const core::RuntimeTables& tables,
                               const std::vector<const InputSource*>& docs,
                               OutputSink* out, core::RunStats* stats,
                               ThreadPool* pool,
                               const StreamOptions& opts = {});

}  // namespace smpx::parallel

#endif  // SMPX_PARALLEL_BATCH_H_
