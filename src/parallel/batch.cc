#include "parallel/batch.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/io.h"
#include "parallel/shard.h"

namespace smpx::parallel {

Status StreamRun(const core::RuntimeTables& tables, const InputSource& src,
                 const std::vector<OutputSink*>& sinks,
                 std::vector<core::QueryRunStats>* query_stats,
                 core::RunStats* stats, const StreamOptions& opts) {
  SMPX_RETURN_IF_ERROR(CheckSinkCount(tables, sinks.size()));
  if (query_stats != nullptr) query_stats->clear();
  std::unique_ptr<core::PrefilterSession> session =
      OpenSession(tables, sinks, query_stats, stats, opts.engine);
  const size_t chunk = std::max<size_t>(1, opts.chunk_bytes);
  std::vector<char> buf(chunk);
  const uint64_t total = src.size();
  uint64_t offset = 0;
  while (offset < total && !session->finished()) {
    auto n = src.ReadAt(offset, buf.data(), buf.size());
    if (!n.ok()) return n.status();
    if (*n == 0) {
      // Blaming the document (Finish's "not in a final state") would hide
      // the real fault: the source ended early.
      return Status::IoError("input source ended at offset " +
                             std::to_string(offset) + " of an advertised " +
                             std::to_string(total) + " bytes");
    }
    SMPX_RETURN_IF_ERROR(
        session->Resume(std::string_view(buf.data(), *n)));
    offset += *n;
  }
  if (session->finished()) {
    // Trailing bytes are ignored, as in a serial run; Finish() would be a
    // no-op state-wise but we still want the summary stats filled.
    session->FinalizeStats();
    return Status::Ok();
  }
  return session->Finish();
}

std::vector<Status> BatchRunStreaming(
    const core::RuntimeTables& tables,
    const std::vector<const InputSource*>& docs,
    const std::vector<std::vector<OutputSink*>>& sinks,
    std::vector<std::vector<core::QueryRunStats>>* query_stats,
    std::vector<core::RunStats>* stats, ThreadPool* pool,
    const StreamOptions& opts) {
  std::vector<Status> statuses(docs.size());
  if (sinks.size() != docs.size()) {
    statuses.assign(docs.size(), Status::InvalidArgument(
                                     "one sink set per document required"));
    return statuses;
  }
  if (stats != nullptr) stats->assign(docs.size(), core::RunStats{});
  if (query_stats != nullptr) query_stats->resize(docs.size());
  pool->RunAndWait(docs.size(), [&](size_t i) {
    statuses[i] = StreamRun(
        tables, *docs[i], sinks[i],
        query_stats != nullptr ? &(*query_stats)[i] : nullptr,
        stats != nullptr ? &(*stats)[i] : nullptr, opts);
  });
  return statuses;
}

std::vector<Status> BatchRunStreamingToFiles(
    const core::RuntimeTables& tables,
    const std::vector<const InputSource*>& docs,
    const std::vector<std::string>& out_paths,
    std::vector<core::RunStats>* stats, ThreadPool* pool,
    const StreamOptions& opts) {
  std::vector<Status> statuses(docs.size());
  if (out_paths.size() != docs.size()) {
    statuses.assign(docs.size(), Status::InvalidArgument(
                                     "one output path per document required"));
    return statuses;
  }
  if (stats != nullptr) stats->assign(docs.size(), core::RunStats{});
  const size_t budget = opts.max_buffer_bytes != 0 ? opts.max_buffer_bytes
                                                   : SpillSink::kUnlimited;
  // File errors are isolated per document: the writer records them and
  // returns Ok so the frontier keeps moving -- one unwritable output file
  // must not starve the rest of the batch.
  std::vector<Status> file_status(docs.size());
  // One shared spill file for the whole batch: overflowing and parked
  // segments cost extents, not file descriptors, so a thousand-document
  // batch stays well under tight fd limits (the ulimit cli test).
  SpillArena arena;
  OrderedCommitSink commit(
      [&out_paths, &file_status](size_t k, SpillSink* seg) {
        auto file = BufferedFileSink::Open(out_paths[k]);
        if (!file.ok()) {
          file_status[k] = file.status();
          return Status::Ok();
        }
        Status s = seg != nullptr ? seg->CopyTo(file->get()) : Status::Ok();
        if (s.ok()) s = (*file)->Flush();
        file_status[k] = s;
        return Status::Ok();
      },
      docs.size());
  pool->RunAndWait(docs.size(), [&](size_t i) {
    auto seg = std::make_unique<SpillSink>(budget, &arena);
    statuses[i] = StreamRun(tables, *docs[i], {seg.get()}, nullptr,
                            stats != nullptr ? &(*stats)[i] : nullptr, opts);
    // Install even on failure: the file should hold the partial
    // projection the old always-open-file driver would have written.
    commit.Install(i, std::move(seg));
  });
  // A sticky commit error (e.g. a parked segment's spill failing on a
  // full disk) halts the frontier: the writer never ran for documents at
  // or past it, so their files were never (re)written -- report that
  // instead of a silent all-OK.
  const Status commit_status = commit.status();
  const size_t frontier = commit.frontier();
  for (size_t i = 0; i < docs.size(); ++i) {
    if (statuses[i].ok()) statuses[i] = file_status[i];
    if (statuses[i].ok() && !commit_status.ok() && i >= frontier) {
      statuses[i] = commit_status;
    }
  }
  return statuses;
}

Status BatchRunStreamingMerged(const core::RuntimeTables& tables,
                               const std::vector<const InputSource*>& docs,
                               OutputSink* out, core::RunStats* stats,
                               ThreadPool* pool, const StreamOptions& opts) {
  const size_t budget = opts.max_buffer_bytes != 0 ? opts.max_buffer_bytes
                                                   : SpillSink::kUnlimited;
  SpillArena arena;  // one spill fd for every overflowing segment
  OrderedCommitSink commit(out, docs.size());
  std::vector<Status> statuses(docs.size());
  std::vector<core::RunStats> doc_stats(docs.size());
  pool->RunAndWait(docs.size(), [&](size_t i) {
    auto seg = std::make_unique<SpillSink>(budget, &arena);
    statuses[i] = StreamRun(tables, *docs[i], {seg.get()}, nullptr,
                            &doc_stats[i], opts);
    if (statuses[i].ok()) {
      // The frontier cannot pass an uninstalled segment, so a document
      // that will fail can never be overtaken by its successors' output:
      // the commit below emits exactly the clean document prefix.
      commit.Install(i, std::move(seg));
    } else {
      commit.Truncate(i);
    }
  });
  size_t max_visited = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    if (!statuses[i].ok()) return statuses[i];
    if (stats != nullptr) {
      MergeRunStats(stats, doc_stats[i]);
      // states_visited is not additive; every document runs the same
      // automaton, so report the maximum.
      max_visited = std::max(max_visited, doc_stats[i].states_visited);
      stats->states_visited = max_visited;
    }
  }
  return commit.status();
}

}  // namespace smpx::parallel
