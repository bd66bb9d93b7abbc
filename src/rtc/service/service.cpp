#include "rtc/service/service.h"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "flow/artifact_io.h"
#include "util/bitio.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/telemetry.h"

namespace vbs {

namespace {

/// Max consecutive load requests devirtualized as one batch.
constexpr std::size_t kMaxBatch = 16;

/// Fault-plan sequence key of one request attempt: id and attempt are the
/// logical identity of a processing step, so the same plan rolls the same
/// faults at any thread count.
std::uint64_t attempt_key(RequestId id, int attempt) {
  return (static_cast<std::uint64_t>(id) << 8) |
         (static_cast<std::uint64_t>(attempt) & 0xff);
}

}  // namespace

const char* to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kQueued:
      return "queued";
    case RequestStatus::kDone:
      return "done";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kFailed:
      return "failed";
    case RequestStatus::kShed:
      return "shed";
    case RequestStatus::kDeadline:
      return "deadline";
  }
  return "?";
}

ReconfigService::ReconfigService(const ArchSpec& spec, int width, int height,
                                 ServiceOptions opts)
    : rtc_(spec, width, height),
      opts_(std::move(opts)),
      cache_(opts_.cache_capacity_bits),
      pool_(std::max(1, opts_.threads)) {
  decoders_.resize(static_cast<std::size_t>(pool_.size()));
  if (opts_.retry_limit < 0 || opts_.retry_backoff_ticks < 0 ||
      opts_.deadline_ticks < 0) {
    throw std::invalid_argument(
        "service: retry_limit/retry_backoff_ticks/deadline_ticks must be "
        ">= 0");
  }
  // The plan lives in opts_, so the pointers stay valid for the service
  // lifetime; an all-zero plan never fires.
  rtc_.set_fault_plan(&opts_.faults);
  cache_.set_fault_plan(&opts_.faults);
}

ReconfigService::Request ReconfigService::make_request(RequestKind kind,
                                                       int tenant) {
  Request req;
  req.id = next_request_++;
  req.kind = kind;
  req.tenant = tenant;
  const auto it = tenant_priority_.find(tenant);
  req.priority = it == tenant_priority_.end() ? 0 : it->second;
  req.submitted_tick = now_ticks_;
  req.submitted_ns = telem::now_ns();
  TenantStats& t = tenants_[tenant];
  t.priority = req.priority;
  ++t.submitted;
  return req;
}

void ReconfigService::shed_request(Request& req) {
  req.shed = true;
  ++stats_.shed;
  ++tenants_[req.tenant].shed;
  last_shed_ = req.id;
}

void ReconfigService::admit_load(Request req) {
  if (opts_.queue_limit == 0 || live_loads_ < opts_.queue_limit) {
    queue_.push_back(std::move(req));
    ++live_loads_;
    return;
  }
  // Queue full. Shed the newest queued load of minimal priority — unless
  // even that one outranks (or ties) the arrival, in which case the
  // arrival itself is shed. `<=` keeps the latest minimum, so the oldest
  // work of a tenant survives its own flood.
  Request* victim = nullptr;
  for (Request& q : queue_) {
    if (q.kind != RequestKind::kLoad || q.shed) continue;
    if (victim == nullptr || q.priority <= victim->priority) victim = &q;
  }
  if (victim != nullptr && victim->priority < req.priority) {
    shed_request(*victim);
    --live_loads_;
    queue_.push_back(std::move(req));
    ++live_loads_;
  } else {
    shed_request(req);
    queue_.push_back(std::move(req));  // still owed a kShed result
  }
}

template <class Write>
void ReconfigService::journal_write(Write write) {
  try {
    write(*journal_);
  } catch (const VbsError&) {
    journal_.reset();  // durability is gone; keep serving from memory
    throw;
  }
}

RequestId ReconfigService::submit_load(BitVector stream, int tenant) {
  Request req = make_request(RequestKind::kLoad, tenant);
  req.stream = std::move(stream);
  const RequestId id = req.id;
  last_shed_ = kNoRequest;
  admit_load(std::move(req));
  if (journal_) {
    // Apply-then-append: both admission paths leave the new request at the
    // back of the queue, so its stream is journaled from there. The shed
    // decision is deterministic given replayed state; its record is a
    // cross-check, bundled into the same append so a torn tail can only
    // lose the companion, never reorder it.
    std::string p;
    put_u64(p, static_cast<std::uint64_t>(id));
    put_u32(p, static_cast<std::uint32_t>(tenant));
    put_bits(p, queue_.back().stream);
    if (last_shed_ != kNoRequest) {
      std::string s;
      put_u64(s, static_cast<std::uint64_t>(last_shed_));
      journal_write([&](ServiceJournal& j) {
        j.append2(ServiceJournal::Kind::kAdmitLoad, p,
                  ServiceJournal::Kind::kShed, s);
      });
    } else {
      journal_append(ServiceJournal::Kind::kAdmitLoad, p);
    }
  }
  return id;
}

RequestId ReconfigService::submit_unload(RequestId load_request, int tenant) {
  return submit_targeted(RequestKind::kUnload, load_request, tenant);
}

RequestId ReconfigService::submit_relocate(RequestId load_request,
                                           int tenant) {
  return submit_targeted(RequestKind::kRelocate, load_request, tenant);
}

RequestId ReconfigService::submit_targeted(RequestKind kind,
                                           RequestId load_request,
                                           int tenant) {
  Request req = make_request(kind, tenant);
  req.target = load_request;
  const RequestId id = req.id;
  queue_.push_back(std::move(req));
  if (journal_) {
    std::string p;
    put_u64(p, static_cast<std::uint64_t>(id));
    put_u64(p, static_cast<std::uint64_t>(load_request));
    put_u32(p, static_cast<std::uint32_t>(tenant));
    journal_append(kind == RequestKind::kUnload
                       ? ServiceJournal::Kind::kAdmitUnload
                       : ServiceJournal::Kind::kAdmitRelocate,
                   p);
  }
  return id;
}

void ReconfigService::set_tenant_priority(int tenant, int priority) {
  tenant_priority_[tenant] = priority;
  tenants_[tenant].priority = priority;
  if (journal_) {
    std::string p;
    put_u32(p, static_cast<std::uint32_t>(tenant));
    put_u32(p, static_cast<std::uint32_t>(priority));
    journal_append(ServiceJournal::Kind::kSetPriority, p);
  }
}

TaskId ReconfigService::task_of(RequestId load_request) const {
  const auto it = task_of_request_.find(load_request);
  return it == task_of_request_.end() ? kNoTask : it->second;
}

RequestResult ReconfigService::make_result(const Request& req) const {
  RequestResult res;
  res.request = req.id;
  res.kind = req.kind;
  res.tenant = req.tenant;
  res.priority = req.priority;
  res.attempts = req.attempt;
  return res;
}

void ReconfigService::finish(const Request& req, RequestResult res,
                             std::vector<RequestResult>& out) {
  res.latency_ticks = now_ticks_ - req.submitted_tick;
  res.latency_seconds = telem::seconds_since(req.submitted_ns);
  if (res.status == RequestStatus::kShed) {
    // Never processed: the whole lifetime was spent queued.
    res.queue_wait_ticks = res.latency_ticks;
  } else {
    res.queue_wait_ticks = req.queue_wait_ticks;
    res.backoff_ticks = req.backoff_ticks;
    res.spike_ticks = req.spike_ticks;
    res.exec_ticks = req.exec_ticks;
  }
  TenantStats& t = tenants_[req.tenant];
  t.latency_ticks += res.latency_ticks;
  t.queue_wait_ticks += res.queue_wait_ticks;
  t.backoff_ticks += res.backoff_ticks;
  t.spike_ticks += res.spike_ticks;
  t.exec_ticks += res.exec_ticks;
  switch (res.status) {
    case RequestStatus::kDone:
      ++t.done;
      break;
    case RequestStatus::kRejected:
      ++t.rejected;
      break;
    case RequestStatus::kFailed:
      ++t.failed;
      break;
    case RequestStatus::kDeadline:
      ++t.deadline_misses;
      break;
    case RequestStatus::kShed:  // counted at shed time (admission)
    case RequestStatus::kQueued:
      break;
  }
  if (telem::enabled()) {
    // Modeled-tick request spans (pid 2, tid = tenant, 1 tick = 1us): one
    // parent span for the whole request, then the phases laid end to end —
    // they tile it exactly, by the tick identity on RequestResult.
    const auto ns = [](long long ticks) {
      return static_cast<std::uint64_t>(ticks) * 1000;
    };
    const std::uint64_t tid = static_cast<std::uint64_t>(req.tenant);
    std::uint64_t cursor = ns(req.submitted_tick);
    telem::emit_complete(
        telem::kPidTicks, tid, cursor, ns(res.latency_ticks), "service",
        "request",
        {{"id", telem::SpanArg::Type::kInt, res.request, 0.0, {}},
         {"status", telem::SpanArg::Type::kString, 0, 0.0,
          to_string(res.status)}});
    const struct {
      const char* name;
      long long ticks;
    } phases[] = {{"queue_wait", res.queue_wait_ticks},
                  {"backoff", res.backoff_ticks},
                  {"spike", res.spike_ticks},
                  {"exec", res.exec_ticks}};
    for (const auto& ph : phases) {
      if (ph.ticks > 0) {
        telem::emit_complete(telem::kPidTicks, tid, cursor, ns(ph.ticks),
                             "service", ph.name);
      }
      cursor += ns(ph.ticks);
    }
  }
  out.push_back(std::move(res));
}

bool ReconfigService::tick_and_check_deadline(Request& req,
                                              std::vector<RequestResult>& out) {
  const long long entry = now_ticks_;
  now_ticks_ = std::max(now_ticks_, req.not_before);
  // Phase attribution: a first attempt waited in the admission queue since
  // submit; a retry waited (idle to not_before included) since
  // schedule_retry stamped retry_tick.
  if (req.attempt == 1) {
    req.queue_wait_ticks = entry - req.submitted_tick;
  } else {
    req.backoff_ticks += now_ticks_ - req.retry_tick;
  }
  const long long spike =
      opts_.faults.latency_spike_ticks(attempt_key(req.id, req.attempt));
  if (spike > 0) {
    now_ticks_ += spike;
    req.spike_ticks += spike;
    ++stats_.faults_injected;
    stats_.latency_spike_ticks += spike;
  }
  if (opts_.deadline_ticks > 0 &&
      now_ticks_ - req.submitted_tick > opts_.deadline_ticks) {
    RequestResult res = make_result(req);
    res.status = RequestStatus::kDeadline;
    res.code = VbsErrc::kDeadline;
    res.error = "deadline of " + std::to_string(opts_.deadline_ticks) +
                " ticks exceeded";
    ++stats_.deadline_misses;
    finish(req, std::move(res), out);
    return false;
  }
  ++now_ticks_;  // the one-tick service cost of actually processing it
  ++req.exec_ticks;
  return true;
}

bool ReconfigService::schedule_retry(const Request& req) {
  if (req.attempt > opts_.retry_limit) return false;
  Request retry = req;
  retry.attempt = req.attempt + 1;
  const int shift = std::min(req.attempt - 1, 20);
  retry.not_before = now_ticks_ + (opts_.retry_backoff_ticks << shift);
  retry.retry_tick = now_ticks_;
  queue_.push_back(std::move(retry));
  ++stats_.retries;
  ++tenants_[req.tenant].retries;
  return true;
}

double ReconfigService::fragmentation() const {
  const RectAllocator& a = rtc_.allocator();
  const int free_tiles = a.width() * a.height() - a.occupied_tiles();
  if (free_tiles <= 0) return 0.0;
  return 1.0 - static_cast<double>(a.largest_free_rect_area()) / free_tiles;
}

std::vector<RequestResult> ReconfigService::drain() {
  if (queue_.empty()) return {};  // pure no-op: nothing to journal either
  TELEM_SPAN("service", "drain");
  std::vector<RequestResult> results;
  results.reserve(queue_.size());
  // Outer loop: retries requeue themselves, so one pass may spawn another.
  while (!queue_.empty()) {
    std::vector<Request> work;
    work.reserve(queue_.size());
    for (Request& r : queue_) work.push_back(std::move(r));
    queue_.clear();
    live_loads_ = 0;
    // Priority-ordered processing; stable, so equal priorities (the
    // default: everything 0) keep plain admission order.
    std::stable_sort(work.begin(), work.end(),
                     [](const Request& a, const Request& b) {
                       return a.priority > b.priority;
                     });

    const auto emit_shed = [&](const Request& r) {
      RequestResult res = make_result(r);
      res.status = RequestStatus::kShed;
      res.code = VbsErrc::kQueueFull;
      res.error = "shed at admission: queue limit " +
                  std::to_string(opts_.queue_limit);
      finish(r, std::move(res), results);
    };

    std::size_t i = 0;
    while (i < work.size()) {
      if (work[i].shed) {
        emit_shed(work[i]);
        ++i;
        continue;
      }
      if (work[i].kind == RequestKind::kLoad) {
        // Maximal run of consecutive live loads, capped at kMaxBatch: one
        // parallel devirtualization batch. The cap only bounds memory;
        // batch boundaries depend on the (sorted) queue alone, never on
        // thread count.
        std::vector<Request*> batch;
        while (i < work.size() && work[i].kind == RequestKind::kLoad &&
               batch.size() < kMaxBatch) {
          if (work[i].shed) {
            emit_shed(work[i]);
          } else {
            batch.push_back(&work[i]);
          }
          ++i;
        }
        process_load_batch(batch, results);
      } else if (work[i].kind == RequestKind::kUnload) {
        process_unload(work[i], results);
        ++i;
      } else {
        process_relocate(work[i], results);
        ++i;
      }
    }
  }
  // One result per request id; ids are admission order.
  std::stable_sort(results.begin(), results.end(),
                   [](const RequestResult& a, const RequestResult& b) {
                     return a.request < b.request;
                   });
  if (journal_) {
    // drain() performs no I/O between records, so a single post-drain
    // commit record gives exact crash semantics: a torn or missing kCommit
    // recovers to the pre-drain state and the drain is simply redone.
    std::string p;
    put_u64(p, state_fingerprint());
    journal_append(ServiceJournal::Kind::kCommit, p);
  }
  return results;
}

std::optional<Point> ReconfigService::admit_placement(int w, int h,
                                                      RequestId cause,
                                                      RequestResult& res) {
  if (const auto slot = rtc_.allocator().find_free(w, h)) return slot;

  std::vector<VictimCandidate> candidates;
  candidates.reserve(task_info_.size());
  for (const auto& [id, info] : task_info_) {
    candidates.push_back({id, rtc_.record(id).rect, info.last_use});
  }
  const auto plan = plan_eviction(rtc_.allocator(), candidates, w, h);
  if (!plan) return std::nullopt;
  for (const TaskId victim : plan->victims) {
    const Rect r = rtc_.record(victim).rect;
    rtc_.unload(victim);
    forget_task(victim);
    eviction_log_.push_back(
        {static_cast<long long>(eviction_log_.size()), victim, r, cause});
    ++stats_.task_evictions;
    ++res.evicted_tasks;
  }
  return plan->origin;
}

void ReconfigService::forget_task(TaskId id) {
  const auto it = task_info_.find(id);
  if (it == task_info_.end()) return;
  task_of_request_.erase(it->second.origin_request);
  task_info_.erase(it);
}

void ReconfigService::process_load_batch(const std::vector<Request*>& batch,
                                         std::vector<RequestResult>& out) {
  // Per-request resolution: which decoded stream serves it, or why not.
  struct Pending {
    std::uint64_t hash = 0;
    std::shared_ptr<const DecodedStream> decoded;  ///< cache or batch dup
    int job = -1;          ///< fresh decode job index, -1 if cached/failed
    bool cache_hit = false;
    VbsErrc parse_code = VbsErrc::kNone;
    std::string parse_error;
  };
  /// One fresh devirtualization of a distinct stream.
  struct Job {
    std::shared_ptr<DecodedStream> decoded = std::make_shared<DecodedStream>();
    std::size_t entry_base = 0;  ///< offset into the flat item arrays
    double decode_seconds = 0.0;
    VbsErrc code = VbsErrc::kNone;
    std::string error;
  };
  std::vector<Pending> pending(batch.size());
  std::vector<Job> jobs;
  std::map<std::uint64_t, int> job_of_hash;

  // Admission-order resolution: cache lookups and batch deduplication are
  // serial, so LRU order and hit counters never depend on thread count.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = pending[i];
    p.hash = stream_content_hash(batch[i]->stream);
    if (auto cached = cache_.find(p.hash)) {
      p.decoded = std::move(cached);
      p.cache_hit = true;
      continue;
    }
    if (const auto dup = job_of_hash.find(p.hash); dup != job_of_hash.end()) {
      p.job = dup->second;
      p.cache_hit = true;  // decode skipped: the batch twin pays for it
      continue;
    }
    try {
      Job job;
      job.decoded->image = deserialize_vbs(batch[i]->stream);
      job.decoded->payloads.resize(job.decoded->image.entries.size());
      p.job = static_cast<int>(jobs.size());
      job_of_hash.emplace(p.hash, p.job);
      jobs.push_back(std::move(job));
    } catch (const VbsError& ex) {
      // A hostile stream fails this one request, typed; the batch goes on.
      p.parse_code = ex.code();
      p.parse_error = ex.what();
    } catch (const std::exception& ex) {
      p.parse_code = VbsErrc::kDecodeFailed;
      p.parse_error = ex.what();
    }
  }

  // Batched asynchronous devirtualization: entries of all jobs become one
  // flat work list on the pool. Decoding an entry is pure (stateless
  // across entries, position-independent), so any schedule produces the
  // same payloads; per-item stats are merged in item order below.
  struct Item {
    int job;
    std::size_t entry;
  };
  std::vector<Item> items;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].entry_base = items.size();
    for (std::size_t e = 0; e < jobs[j].decoded->image.entries.size(); ++e) {
      items.push_back({static_cast<int>(j), e});
    }
  }
  if (!items.empty()) {
    ++stats_.batches;
    telem::Span batch_span("service", "decode_batch");
    batch_span.arg("requests", batch.size()).arg("entries", items.size());
    std::vector<DecodeStats> item_stats(items.size());
    std::vector<double> item_seconds(items.size(), 0.0);
    std::vector<std::string> item_errors(items.size());
    std::vector<VbsErrc> item_codes(items.size(), VbsErrc::kNone);
    // Each rank decodes on its own decoder set (a Devirtualizer is
    // reusable but not thread-safe), kept across batches.
    pool_.parallel_for(items.size(), [&](int rank, std::size_t idx) {
      const Item item = items[idx];
      const std::uint64_t t0 = telem::now_ns();
      try {
        DecodedStream& decoded =
            *jobs[static_cast<std::size_t>(item.job)].decoded;
        const VbsEntry& e = decoded.image.entries[item.entry];
        Devirtualizer& dv = decoders_[static_cast<std::size_t>(rank)]
                                .decoder_for(decoded.image, e);
        if (!dv.decode_entry(e, decoded.image.version,
                             decoded.payloads[item.entry], &item_stats[idx])) {
          item_errors[idx] = "entry " + std::to_string(e.cx) + "," +
                             std::to_string(e.cy) + " failed to decode";
          item_codes[idx] = VbsErrc::kDecodeFailed;
        }
      } catch (const VbsError& ex) {
        item_errors[idx] = ex.what();
        item_codes[idx] = ex.code();
      } catch (const std::exception& ex) {
        item_errors[idx] = ex.what();
        item_codes[idx] = VbsErrc::kDecodeFailed;
      }
      item_seconds[idx] = telem::seconds_since(t0);
    });
    publish_decoder_bytes();
    for (std::size_t idx = 0; idx < items.size(); ++idx) {
      Job& job = jobs[static_cast<std::size_t>(items[idx].job)];
      job.decoded->decode += item_stats[idx];
      job.decode_seconds += item_seconds[idx];
      if (!item_errors[idx].empty() && job.error.empty()) {
        job.error = item_errors[idx];
        job.code = item_codes[idx];
      }
    }
    for (const Job& job : jobs) stats_.decode += job.decoded->decode;
  }

  // Commit strictly in processing order.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& req = *batch[i];
    Pending& p = pending[i];
    if (req.attempt == 1) ++stats_.loads;  // retries are not new requests
    // A request past its deadline is dropped here: any decode work it
    // caused above is wasted, exactly like an overloaded real service.
    if (!tick_and_check_deadline(req, out)) continue;
    RequestResult res = make_result(req);

    if (!p.parse_error.empty()) {
      res.status = RequestStatus::kFailed;
      res.code = p.parse_code;
      res.error = p.parse_error;
      ++stats_.failed;
      finish(req, std::move(res), out);
      continue;
    }

    std::shared_ptr<const DecodedStream> decoded = p.decoded;
    double decode_seconds = 0.0;
    DecodeStats decode_cost;  // stays zero for warm loads
    VbsErrc code = VbsErrc::kNone;
    std::string error;
    if (!decoded && p.job >= 0) {
      Job& job = jobs[static_cast<std::size_t>(p.job)];
      if (job.error.empty()) {
        // Injected transient decode fault: only an attempt that actually
        // paid for devirtualization can lose it. Batch twins keep their
        // shared decode; the cache is NOT warmed by a faulted attempt.
        if (!p.cache_hit &&
            opts_.faults.decode_fails(attempt_key(req.id, req.attempt))) {
          ++stats_.faults_injected;
          if (schedule_retry(req)) continue;  // result owed by the retry
          res.status = RequestStatus::kFailed;
          res.code = VbsErrc::kFaultInjected;
          res.error = "injected decode fault (retries exhausted)";
          ++stats_.failed;
          finish(req, std::move(res), out);
          continue;
        }
        decoded = job.decoded;
        // The first committer of a fresh decode carries its cost; batch
        // twins of the same content count as warm.
        if (!p.cache_hit) {
          decode_seconds = job.decode_seconds;
          decode_cost = job.decoded->decode;
        }
        // A fresh decode warms the cache even if placement fails below: a
        // retry after departures should not pay for routing again.
        cache_.insert(p.hash, job.decoded);
      } else {
        code = job.code;
        error = job.error;
      }
    }

    if (!decoded) {
      res.status = RequestStatus::kFailed;
      res.code = code;
      res.error = error;
      ++stats_.failed;
      finish(req, std::move(res), out);
      continue;
    }

    res.cache_hit = p.cache_hit;
    if (p.cache_hit) {
      ++stats_.warm_loads;
    } else {
      ++stats_.cold_loads;
    }
    const VbsImage& img = decoded->image;
    const auto slot = admit_placement(img.task_w, img.task_h, req.id, res);
    if (!slot) {
      res.status = RequestStatus::kRejected;
      res.code = VbsErrc::kNoPlacement;
      res.error = "no placement for " + std::to_string(img.task_w) + "x" +
                  std::to_string(img.task_h);
      ++stats_.rejected;
      finish(req, std::move(res), out);
      continue;
    }
    TaskId id = kNoTask;
    try {
      id = rtc_.load_decoded(img, decoded->payloads, req.stream.size(), *slot,
                             decode_cost, decode_seconds, pool_.size());
    } catch (const VbsError& ex) {
      if (ex.code() == VbsErrc::kFaultInjected) {
        // Injected transient allocation fault (the controller rolled back
        // before touching the allocator): back off and retry.
        ++stats_.faults_injected;
        if (schedule_retry(req)) continue;
        res.status = RequestStatus::kFailed;
        res.code = VbsErrc::kFaultInjected;
        res.error = "injected allocation fault (retries exhausted)";
      } else {
        // Hostile stream surviving parse (e.g. wrong architecture): a
        // typed per-request failure, never a drain teardown.
        res.status = RequestStatus::kFailed;
        res.code = ex.code();
        res.error = ex.what();
      }
      ++stats_.failed;
      finish(req, std::move(res), out);
      continue;
    }
    task_of_request_[req.id] = id;
    task_info_[id] = {p.hash, ++use_seq_, req.id};
    res.status = RequestStatus::kDone;
    res.task = id;
    res.rect = rtc_.record(id).rect;
    res.decode_seconds = decode_seconds;
    finish(req, std::move(res), out);
  }
}

void ReconfigService::process_unload(Request& req,
                                     std::vector<RequestResult>& out) {
  ++stats_.unloads;
  if (!tick_and_check_deadline(req, out)) return;
  RequestResult res = make_result(req);
  const TaskId id = task_of(req.target);
  if (id == kNoTask) {
    // Already evicted (or the load never committed): an unload of a gone
    // task is not an error in a multi-tenant queue, just a no-op.
    res.status = RequestStatus::kRejected;
    res.code = VbsErrc::kNoPlacement;
    res.error = "task of request " + std::to_string(req.target) + " is gone";
    ++stats_.rejected;
  } else {
    res.task = id;
    res.rect = rtc_.record(id).rect;
    rtc_.unload(id);
    forget_task(id);
    res.status = RequestStatus::kDone;
  }
  finish(req, std::move(res), out);
}

void ReconfigService::publish_decoder_bytes() const {
  if (!telem::enabled()) return;
  std::size_t bytes = 0;
  for (const RegionDecoderCache& d : decoders_) {
    bytes = std::max(bytes, d.retained_bytes());
  }
  telem::gauge_set("service.decoder_bytes", static_cast<double>(bytes));
}

void ReconfigService::process_relocate(Request& req,
                                       std::vector<RequestResult>& out) {
  ++stats_.relocates;
  if (!tick_and_check_deadline(req, out)) return;
  RequestResult res = make_result(req);
  const TaskId id = task_of(req.target);
  if (id == kNoTask) {
    res.status = RequestStatus::kRejected;
    res.code = VbsErrc::kNoPlacement;
    res.error = "task of request " + std::to_string(req.target) + " is gone";
    ++stats_.rejected;
    finish(req, std::move(res), out);
    return;
  }
  const Rect cur = rtc_.record(id).rect;
  res.task = id;
  res.rect = cur;
  // Destination: first fit on the live occupancy (own tiles still marked,
  // so the choice can never overlap the task itself — the controller has no
  // shadow plane). No free slot means the relocation is a no-op.
  const auto slot = rtc_.allocator().find_free(cur.w, cur.h);
  if (slot) {
    TaskInfo& info = task_info_.at(id);
    const std::uint64_t t0 = telem::now_ns();
    try {
      if (const auto cached = cache_.find(info.content_hash)) {
        rtc_.relocate_decoded(id, *slot, cached->payloads);
        ++stats_.relocates_cached;
      } else {
        // Cache miss (evicted or capacity 0): re-decode the retained image
        // once — serially, a relocation is a single stream — then warm the
        // cache with the result so N uncached relocations of the same
        // content pay for one decode, not N. Drain runs on rank 0, so its
        // decoder set is free here.
        const auto fresh = decode_stream(rtc_.image_of(id), decoders_[0]);
        publish_decoder_bytes();
        stats_.decode += fresh->decode;
        cache_.insert(info.content_hash, fresh);
        rtc_.relocate_decoded(id, *slot, fresh->payloads);
        ++stats_.relocates_decoded;
      }
    } catch (const VbsError& ex) {
      res.status = RequestStatus::kFailed;
      res.code = ex.code();
      res.error = ex.what();
      ++stats_.failed;
      finish(req, std::move(res), out);
      return;
    }
    res.decode_seconds = telem::seconds_since(t0);
    res.rect = rtc_.record(id).rect;
    info.last_use = ++use_seq_;
  }
  res.status = RequestStatus::kDone;
  finish(req, std::move(res), out);
}

// --- durability: journaling, snapshots, recovery -----------------------------
//
// The durable state is listed once, in walk_state, in snapshot order. Three
// archives drive that walk, each with its own coding per primitive:
//   StateHasher     state_fingerprint(): folds every field as one u64 and
//                   skips the snapshot-only bulk fields;
//   SnapshotWriter  serialize_snapshot(): fixed widths (artio, BitWriter);
//   SnapshotReader  restore_snapshot(): the same widths back, every count
//                   bounded before anything is allocated for it.
// The reader's primitives take each field by reference and assign it, so
// the one list both saves and restores.

namespace {

constexpr std::uint32_t kSnapshotVersion = 2;
constexpr std::uint32_t kOpenVersion = 1;
/// The kOpen record keeps the slots of three retired options: the placement
/// policy (always first fit), evict-to-fit (always on) and the batch cap.
constexpr const char* kOpenPolicy = "first_fit";

[[noreturn]] void bad_journal(const std::string& what) {
  throw VbsError(VbsErrc::kBadJournal, "journal: " + what);
}

class StateHasher {
 public:
  explicit StateHasher(std::uint64_t seed) : h_(seed) {}
  std::uint64_t value() const { return h_; }

  void i32(std::uint64_t v) { fold(v); }
  void i64(std::uint64_t v) { fold(v); }
  void u64(std::uint64_t v) { fold(v); }
  template <class E> void u8(E v, E, const char*) {
    fold(static_cast<std::uint64_t>(v));
  }
  void flag(bool v) { fold(v ? 1 : 0); }
  void count(std::size_t n, const char*) { fold(n); }
  /// Configuration memory: its words, then its size.
  void bits(const BitVector& b) {
    for (const std::uint64_t w : b.words()) fold(w);
    fold(b.size());
  }

 private:
  void fold(std::uint64_t v) { h_ = hash_u64(h_, v); }
  std::uint64_t h_;
};

class SnapshotWriter {
 public:
  /// Starts the snapshot with its version and the kOpen configuration.
  explicit SnapshotWriter(const std::string& open) {
    w_.write(kSnapshotVersion, 32);
    i64(open.size());
    for (const char c : open) w_.write(static_cast<unsigned char>(c), 8);
  }
  BitVector take() { return w_.take(); }

  void i32(std::int32_t v) { artio::put_i32(w_, v); }
  void i64(std::int64_t v) { artio::put_i64(w_, v); }
  void u64(std::uint64_t v) { w_.write(v, 64); }
  template <class E> void u8(E v, E, const char*) {
    w_.write(static_cast<std::uint64_t>(v), 8);
  }
  void flag(bool v) { w_.write_bit(v); }
  void count(std::size_t n, const char*) { i32(n); }
  void bits(const BitVector& b) {
    u64(b.size());
    w_.write_vector(b);
  }
  void image(const VbsImage& img) { bits(serialize_vbs(img)); }

 private:
  BitWriter w_;
};

class SnapshotReader {
 public:
  explicit SnapshotReader(const BitVector& snapshot) : r_(snapshot) {}
  /// The snapshot's head: the version, then the kOpen configuration.
  std::string open() {
    if (r_.read(32) != kSnapshotVersion) {
      bad_journal("unsupported snapshot version");
    }
    const std::int64_t n = artio::get_i64(r_);
    // Bound BEFORE allocating: a corrupt length must reject, not bad_alloc.
    if (n < 0 || static_cast<std::uint64_t>(n) > r_.remaining() / 8) {
      bad_journal("bad byte count");
    }
    std::string s(static_cast<std::size_t>(n), '\0');
    for (char& c : s) c = static_cast<char>(r_.read(8));
    return s;
  }
  bool at_end() const { return r_.at_end(); }

  template <class T> void i32(T& v) { v = static_cast<T>(artio::get_i32(r_)); }
  template <class T> void i64(T& v) { v = static_cast<T>(artio::get_i64(r_)); }
  template <class T> void u64(T& v) { v = static_cast<T>(r_.read(64)); }
  template <class E> void u8(E& v, E max, const char* what) {
    const std::uint64_t raw = r_.read(8);
    if (raw > static_cast<std::uint64_t>(max)) {
      bad_journal(std::string("bad ") + what);
    }
    v = static_cast<E>(raw);
  }
  void flag(bool& v) { v = r_.read_bit(); }
  /// Rejects counts that could not fit in the remaining bits (every element
  /// takes at least 64): a corrupt count fails typed, before allocating.
  std::size_t count(const char* what) {
    const std::int64_t n = artio::get_i32(r_);
    if (n < 0 || static_cast<std::uint64_t>(n) > r_.remaining() / 64) {
      bad_journal(std::string("bad ") + what + " count");
    }
    return static_cast<std::size_t>(n);
  }
  void bits(BitVector& b) { b = r_.read_vector(r_.read(64)); }
  void image(VbsImage& img) {
    img = deserialize_vbs(r_.read_vector(r_.read(64)));
  }

 private:
  BitReader r_;
};

/// Whether an archive rebuilds the state it walks, and whether it walks the
/// snapshot-only bulk fields (task images, threads_used, cache payloads).
template <class Ar>
constexpr bool kLoads = std::is_same_v<Ar, SnapshotReader>;
template <class Ar>
constexpr bool kBulk = !std::is_same_v<Ar, StateHasher>;

template <class Ar, class... T>
void i64s(Ar& ar, T&... v) {
  (ar.i64(v), ...);
}

template <class Ar, class R>
void walk_rect(Ar& ar, R& r) {
  ar.i32(r.x);
  ar.i32(r.y);
  ar.i32(r.w);
  ar.i32(r.h);
}

template <class Ar, class D>
void walk_decode(Ar& ar, D& d) {
  i64s(ar, d.pairs_routed, d.pairs_failed, d.nodes_expanded,
       d.entries_decoded, d.raw_entries, d.negotiation_iterations);
}

/// A sequence as its count, then `each` element; a loading archive appends
/// the elements it reads.
template <class Ar, class Seq, class Fn>
void walk_seq(Ar& ar, Seq& seq, const char* what, Fn each) {
  if constexpr (kLoads<Ar>) {
    for (std::size_t n = ar.count(what); n > 0; --n) {
      typename Seq::value_type v{};
      each(v);
      seq.push_back(std::move(v));
    }
  } else {
    ar.count(seq.size(), what);
    for (auto& v : seq) each(v);
  }
}

/// A map as its count, then `each` key and value.
template <class Ar, class Map, class Fn>
void walk_map(Ar& ar, Map& map, const char* what, Fn each) {
  if constexpr (kLoads<Ar>) {
    for (std::size_t n = ar.count(what); n > 0; --n) {
      typename Map::key_type k{};
      typename Map::mapped_type v{};
      each(k, v);
      map[k] = std::move(v);
    }
  } else {
    ar.count(map.size(), what);
    for (auto& [k, v] : map) each(k, v);
  }
}

/// A controller task; its image and threads_used are snapshot-only.
template <class Ar, class Rec, class Img>
void walk_task(Ar& ar, Rec& rec, Img& image) {
  ar.i32(rec.id);
  walk_rect(ar, rec.rect);
  ar.i64(rec.stream_bits);
  walk_decode(ar, rec.decode);
  if constexpr (kBulk<Ar>) {
    ar.i32(rec.threads_used);
    ar.image(image);
  }
}

/// A cache entry. The key IS the content hash, so the fingerprint folds
/// the entry's footprint beside it and none of its payload bytes.
template <class Ar, class Key, class Stream>
void walk_cache_entry(Ar& ar, Key& key, Stream& ds) {
  ar.u64(key);
  if constexpr (kBulk<Ar>) {
    ar.image(ds.image);
    walk_seq(ar, ds.payloads, "payload", [&](auto& p) { ar.bits(p); });
    walk_decode(ar, ds.decode);
  } else {
    ar.u64(ds.footprint_bits());
  }
}

/// The decoded-stream cache, restored through its setters. The snapshot
/// walks counters, then entries; the fingerprint walks entries, the cache
/// size, then counters.
template <class Ar, class Cache>
void walk_cache(Ar& ar, Cache& cache) {
  long long hits = cache.hits(), misses = cache.misses();
  long long insertions = cache.insertions(), evictions = cache.evictions();
  long long fault_drops = cache.fault_drops();
  std::uint64_t insert_seq = cache.insert_seq();
  const auto counters = [&] {
    i64s(ar, hits, misses, insertions, evictions, fault_drops);
    ar.u64(insert_seq);
  };
  if constexpr (kBulk<Ar>) counters();
  if constexpr (kLoads<Ar>) {
    cache.restore_counters(hits, misses, insertions, evictions, fault_drops,
                           insert_seq);
    for (std::size_t n = ar.count("cache entry"); n > 0; --n) {
      std::uint64_t key = 0;
      auto ds = std::make_shared<DecodedStream>();
      walk_cache_entry(ar, key, *ds);
      cache.restore_entry(key, std::move(ds));  // MRU -> LRU rebuilds order
    }
  } else {
    const auto entries = cache.entries_mru();
    ar.count(entries.size(), "cache entry");
    for (const auto& [key, value] : entries) walk_cache_entry(ar, key, *value);
  }
  if constexpr (!kBulk<Ar>) {
    ar.u64(cache.size_bits());
    counters();
  }
}

}  // namespace

template <class Ar, class Svc>
void ReconfigService::walk_state(Ar& ar, Svc& svc) {
  // Controller: configuration memory (the paper-level ground truth), the
  // serial counters that key fault rolls, the tasks. A loading archive
  // hands each part to the controller's restore hooks.
  auto& rtc = svc.rtc_;
  if constexpr (kLoads<Ar>) {
    BitVector config;
    ar.bits(config);
    rtc.restore_config_memory(config);
  } else {
    ar.bits(rtc.config_memory());
  }
  TaskId next_id = rtc.next_task_id();
  std::uint64_t decode_seq = rtc.decode_seq(), alloc_seq = rtc.alloc_seq();
  DecodeStats total = rtc.total_decode_stats();
  ar.i32(next_id);
  ar.u64(decode_seq);
  ar.u64(alloc_seq);
  walk_decode(ar, total);
  if constexpr (kLoads<Ar>) {
    rtc.restore_counters(next_id, decode_seq, alloc_seq, total);
    for (std::size_t n = ar.count("task"); n > 0; --n) {
      TaskRecord rec;
      VbsImage image;
      walk_task(ar, rec, image);
      rtc.restore_task(rec, std::move(image));
    }
  } else {
    const std::vector<TaskId> ids = rtc.task_ids();
    ar.count(ids.size(), "task");
    for (const TaskId id : ids) walk_task(ar, rtc.record(id), rtc.image_of(id));
  }
  walk_cache(ar, svc.cache_);
  // Service: request ids, the modeled clock, admission state, tables.
  ar.i64(svc.next_request_);
  ar.u64(svc.use_seq_);
  ar.i64(svc.now_ticks_);
  ar.i64(svc.live_loads_);
  ar.i64(svc.last_shed_);
  walk_map(ar, svc.tenant_priority_, "priority", [&](auto& tenant, auto& p) {
    ar.i32(tenant);
    ar.i32(p);
  });
  walk_map(ar, svc.tenants_, "tenant", [&](auto& tenant, auto& t) {
    ar.i32(tenant);
    ar.i32(t.priority);
    i64s(ar, t.submitted, t.done, t.rejected, t.failed, t.shed,
         t.deadline_misses, t.retries, t.latency_ticks, t.queue_wait_ticks,
         t.backoff_ticks, t.spike_ticks, t.exec_ticks);
  });
  walk_map(ar, svc.task_of_request_, "request-map",
           [&](auto& req, auto& task) {
             ar.i64(req);
             ar.i32(task);
           });
  walk_map(ar, svc.task_info_, "task-info", [&](auto& task, auto& info) {
    ar.i32(task);
    ar.u64(info.content_hash);
    ar.u64(info.last_use);
    ar.i64(info.origin_request);
  });
  walk_seq(ar, svc.eviction_log_, "eviction", [&](auto& e) {
    ar.i64(e.seq);
    ar.i32(e.task);
    walk_rect(ar, e.rect);
    ar.i64(e.cause);
  });
  auto& s = svc.stats_;
  i64s(ar, s.loads, s.unloads, s.relocates, s.rejected, s.failed, s.shed,
       s.deadline_misses, s.retries, s.faults_injected, s.latency_spike_ticks,
       s.warm_loads, s.cold_loads, s.relocates_cached, s.relocates_decoded,
       s.batches, s.task_evictions);
  walk_decode(ar, s.decode);
  walk_seq(ar, svc.queue_, "queue", [&](auto& q) {
    ar.i64(q.id);
    ar.u8(q.kind, RequestKind::kRelocate, "queued request kind");
    if constexpr (kBulk<Ar>) {
      ar.bits(q.stream);
    } else {  // the fingerprint folds a queued load's content hash
      ar.u64(q.kind == RequestKind::kLoad ? stream_content_hash(q.stream) : 0);
    }
    ar.i64(q.target);
    ar.i32(q.tenant);
    ar.i32(q.priority);
    ar.i32(q.attempt);
    ar.flag(q.shed);
    i64s(ar, q.submitted_tick, q.not_before, q.retry_tick, q.queue_wait_ticks,
         q.backoff_ticks, q.spike_ticks, q.exec_ticks);
  });
}

std::uint64_t ReconfigService::state_fingerprint() const {
  constexpr char kTag[] = "vbs.service.state.v1";
  StateHasher h(fnv1a64(kTag, sizeof kTag - 1));
  walk_state(h, *this);
  return h.value();
}

std::string ReconfigService::serialize_open() const {
  const ArchSpec& spec = rtc_.fabric().spec();
  std::string p;
  put_u32(p, kOpenVersion);
  put_u32(p, static_cast<std::uint32_t>(spec.chan_width));
  put_u32(p, static_cast<std::uint32_t>(spec.lut_k));
  put_u32(p, static_cast<std::uint32_t>(spec.sb_pattern));
  put_u32(p, static_cast<std::uint32_t>(rtc_.fabric().width()));
  put_u32(p, static_cast<std::uint32_t>(rtc_.fabric().height()));
  put_u32(p, static_cast<std::uint32_t>(opts_.threads));
  put_u64(p, opts_.cache_capacity_bits);
  put_str(p, kOpenPolicy);  // retired placement policy, evict flag, batch
  put_u32(p, 1);
  put_u32(p, static_cast<std::uint32_t>(kMaxBatch));
  put_u64(p, opts_.queue_limit);
  put_u64(p, static_cast<std::uint64_t>(opts_.deadline_ticks));
  put_u32(p, static_cast<std::uint32_t>(opts_.retry_limit));
  put_u64(p, static_cast<std::uint64_t>(opts_.retry_backoff_ticks));
  put_str(p, opts_.faults.spec());
  return p;
}

std::unique_ptr<ReconfigService> ReconfigService::construct_from_open(
    const std::string& open_payload, int threads) {
  ByteReader r(open_payload, VbsErrc::kBadJournal, "journal open");
  if (r.u32() != kOpenVersion) bad_journal("unsupported open version");
  ArchSpec spec;
  spec.chan_width = static_cast<int>(r.u32());
  spec.lut_k = static_cast<int>(r.u32());
  const std::uint32_t sb = r.u32();
  if (sb > static_cast<std::uint32_t>(SbPattern::kWilton)) {
    bad_journal("bad sb_pattern");
  }
  spec.sb_pattern = static_cast<SbPattern>(sb);
  const int w = static_cast<int>(r.u32());
  const int h = static_cast<int>(r.u32());
  ServiceOptions o;
  o.threads = static_cast<int>(r.u32());
  o.cache_capacity_bits = static_cast<std::size_t>(r.u64());
  // Only the values the retired options always had can be replayed.
  if (r.str() != kOpenPolicy || r.u32() != 1 || r.u32() != kMaxBatch) {
    bad_journal("unsupported placement policy, eviction or batch setting");
  }
  o.queue_limit = static_cast<std::size_t>(r.u64());
  o.deadline_ticks = static_cast<long long>(r.u64());
  o.retry_limit = static_cast<int>(r.u32());
  o.retry_backoff_ticks = static_cast<long long>(r.u64());
  o.faults = FaultPlan::parse(r.str());
  if (!r.at_end()) bad_journal("trailing open bytes");
  if (threads > 0) o.threads = threads;
  return std::make_unique<ReconfigService>(spec, w, h, std::move(o));
}

BitVector ReconfigService::serialize_snapshot() const {
  SnapshotWriter w(serialize_open());
  walk_state(w, *this);
  return w.take();
}

std::unique_ptr<ReconfigService> ReconfigService::restore_snapshot(
    const BitVector& snapshot, int threads) {
  SnapshotReader r(snapshot);
  auto svc = construct_from_open(r.open(), threads);
  walk_state(r, *svc);
  if (!r.at_end()) bad_journal("trailing snapshot bits");
  // Wall clock is not part of the contract; restamp on the telemetry clock
  // so a restored request still reports a sane wall latency.
  for (Request& q : svc->queue_) q.submitted_ns = telem::now_ns();
  return svc;
}

void ReconfigService::journal_append(ServiceJournal::Kind kind,
                                     const std::string& payload) {
  journal_write([&](ServiceJournal& j) { j.append(kind, payload); });
}

void ReconfigService::open_journal(const std::string& dir,
                                   const FaultPlan* io_faults) {
  journal_ = std::make_unique<ServiceJournal>(
      dir, io_faults != nullptr ? *io_faults : FaultPlan(), serialize_open());
}

void ReconfigService::compact_journal() {
  if (!journal_) {
    throw std::logic_error("compact_journal: no journal attached");
  }
  journal_write([&](ServiceJournal& j) {
    j.compact(serialize_snapshot(), state_fingerprint());
  });
}

std::unique_ptr<ReconfigService> ReconfigService::recover(
    const std::string& dir, int threads, RecoveryInfo* info) {
  const ServiceJournal::ScanResult sr = ServiceJournal::scan(dir);
  RecoveryInfo ri;
  ri.records = static_cast<long long>(sr.records.size());
  ri.torn_tail = sr.torn_tail;
  ri.journal_bytes = sr.wal_bytes;
  ri.epoch = sr.epoch;

  ri.from_snapshot = !sr.snapshot_path.empty();
  std::uint64_t stored_fp = 0;
  const BitVector snap =
      ri.from_snapshot
          ? ServiceJournal::read_snapshot(sr.snapshot_path, &stored_fp)
          : BitVector();
  std::unique_ptr<ReconfigService> svc;
  try {
    svc = ri.from_snapshot
              ? restore_snapshot(snap, threads)
              : construct_from_open(sr.records.front().payload, threads);
  } catch (const VbsError& e) {
    if (e.code() == VbsErrc::kBadJournal) throw;
    bad_journal(e.what());  // truncation, bad VBS image, ... : corrupt
  } catch (const std::exception& e) {
    // Validation failures (ArchSpec, ServiceOptions, FaultPlan::parse) and
    // inconsistent snapshots (overlapping tasks, ...) mean a corrupt base.
    bad_journal(e.what());
  }
  if (ri.from_snapshot && svc->state_fingerprint() != stored_fp) {
    bad_journal("snapshot fingerprint mismatch");
  }

  // Replay through the public mutators — the same code path as the live
  // run, so every deterministic decision (shedding, faults, deadlines,
  // eviction) reproduces itself.
  for (std::size_t i = 1; i < sr.records.size(); ++i) {
    const ServiceJournal::Record& rec = sr.records[i];
    ByteReader r(rec.payload, VbsErrc::kBadJournal, "journal record");
    switch (rec.kind) {
      case ServiceJournal::Kind::kAdmitLoad: {
        const auto id = static_cast<RequestId>(r.u64());
        const auto tenant = static_cast<int>(r.u32());
        BitVector stream = r.bits();
        r.expect_end("load");
        if (svc->submit_load(std::move(stream), tenant) != id) {
          bad_journal("replayed load got a different request id");
        }
        // The shed decision re-derives deterministically; the journaled
        // companion (same append) must agree — unless it was torn off the
        // tail, which is the one legitimate crash window.
        if (svc->last_shed_ != kNoRequest) {
          if (i + 1 < sr.records.size()) {
            const ServiceJournal::Record& shed = sr.records[++i];
            ByteReader s(shed.payload, VbsErrc::kBadJournal, "journal shed");
            if (shed.kind != ServiceJournal::Kind::kShed ||
                s.u64() != static_cast<std::uint64_t>(svc->last_shed_)) {
              bad_journal("shed record disagrees with replay");
            }
            s.expect_end("shed");
          }
        } else if (i + 1 < sr.records.size() &&
                   sr.records[i + 1].kind == ServiceJournal::Kind::kShed) {
          bad_journal("shed record without a shed admission");
        }
        ++ri.admits;
        break;
      }
      case ServiceJournal::Kind::kAdmitUnload:
      case ServiceJournal::Kind::kAdmitRelocate: {
        const auto id = static_cast<RequestId>(r.u64());
        const auto target = static_cast<RequestId>(r.u64());
        const auto tenant = static_cast<int>(r.u32());
        r.expect_end("admission");
        const RequestId got =
            rec.kind == ServiceJournal::Kind::kAdmitUnload
                ? svc->submit_unload(target, tenant)
                : svc->submit_relocate(target, tenant);
        if (got != id) {
          bad_journal("replayed request got a different id");
        }
        ++ri.admits;
        break;
      }
      case ServiceJournal::Kind::kSetPriority: {
        const auto tenant = static_cast<int>(r.u32());
        const auto priority = static_cast<int>(r.u32());
        r.expect_end("priority");
        svc->set_tenant_priority(tenant, priority);
        ++ri.admits;
        break;
      }
      case ServiceJournal::Kind::kCommit: {
        const std::uint64_t fp = r.u64();
        r.expect_end("commit");
        svc->drain();
        if (svc->state_fingerprint() != fp) {
          bad_journal("commit fingerprint mismatch after replayed drain");
        }
        ++ri.commits;
        break;
      }
      case ServiceJournal::Kind::kShed:
        bad_journal("stray shed record");
      case ServiceJournal::Kind::kOpen:
      case ServiceJournal::Kind::kSnapshotBarrier:
        bad_journal("open/barrier record mid-stream");  // scan enforces too
    }
  }

  // Reattach for continued appends — with no I/O injection: the plan that
  // killed the predecessor must not re-kill recovery's successor.
  svc->journal_ = std::make_unique<ServiceJournal>(
      ServiceJournal::AttachTag{}, dir, sr.epoch);
  if (info != nullptr) *info = ri;
  return svc;
}

}  // namespace vbs
