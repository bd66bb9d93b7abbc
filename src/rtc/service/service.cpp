#include "rtc/service/service.h"

#include <algorithm>
#include <stdexcept>

#include "flow/artifact_io.h"
#include "util/bitio.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/telemetry.h"

namespace vbs {

namespace {

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
      policy_(make_placement_policy(opts_.policy)),
      cache_(opts_.cache_capacity_bits),
      pool_(std::max(1, opts_.threads)) {
  decoders_.resize(static_cast<std::size_t>(pool_.size()));
  if (opts_.max_batch < 1) {
    throw std::invalid_argument("service: max_batch must be >= 1");
  }
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
      journal_append2(ServiceJournal::Kind::kAdmitLoad, p,
                      ServiceJournal::Kind::kShed, s);
    } else {
      journal_append(ServiceJournal::Kind::kAdmitLoad, p);
    }
  }
  return id;
}

RequestId ReconfigService::submit_unload(RequestId load_request, int tenant) {
  Request req = make_request(RequestKind::kUnload, tenant);
  req.target = load_request;
  const RequestId id = req.id;
  queue_.push_back(std::move(req));
  if (journal_) {
    std::string p;
    put_u64(p, static_cast<std::uint64_t>(id));
    put_u64(p, static_cast<std::uint64_t>(load_request));
    put_u32(p, static_cast<std::uint32_t>(tenant));
    journal_append(ServiceJournal::Kind::kAdmitUnload, p);
  }
  return id;
}

RequestId ReconfigService::submit_relocate(RequestId load_request,
                                           int tenant) {
  Request req = make_request(RequestKind::kRelocate, tenant);
  req.target = load_request;
  const RequestId id = req.id;
  queue_.push_back(std::move(req));
  if (journal_) {
    std::string p;
    put_u64(p, static_cast<std::uint64_t>(id));
    put_u64(p, static_cast<std::uint64_t>(load_request));
    put_u32(p, static_cast<std::uint32_t>(tenant));
    journal_append(ServiceJournal::Kind::kAdmitRelocate, p);
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
        // Maximal run of consecutive live loads, capped at max_batch: one
        // parallel devirtualization batch. The cap only bounds memory;
        // batch boundaries depend on the (sorted) queue alone, never on
        // thread count.
        std::vector<Request*> batch;
        while (i < work.size() && work[i].kind == RequestKind::kLoad &&
               static_cast<int>(batch.size()) < opts_.max_batch) {
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
  if (const auto slot = policy_->place(rtc_.allocator(), w, h)) return slot;
  if (!opts_.evict_to_fit) return std::nullopt;

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
        if (!dv.decode_entry(e, decoded.payloads[item.entry],
                             &item_stats[idx])) {
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
  // Destination by policy on the live occupancy (own tiles still marked, so
  // the choice can never overlap the task itself — the controller has no
  // shadow plane). No free slot means the relocation is a no-op.
  const auto slot = policy_->place(rtc_.allocator(), cur.w, cur.h);
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

namespace {

[[noreturn]] void bad_journal(const std::string& what) {
  throw VbsError(VbsErrc::kBadJournal, "journal: " + what);
}

void put_decode_stats(BitWriter& w, const DecodeStats& s) {
  artio::put_i64(w, s.pairs_routed);
  artio::put_i64(w, s.pairs_failed);
  artio::put_i64(w, s.nodes_expanded);
  artio::put_i64(w, s.entries_decoded);
  artio::put_i64(w, s.raw_entries);
  artio::put_i64(w, s.negotiation_iterations);
}

DecodeStats get_decode_stats(BitReader& r) {
  DecodeStats s;
  s.pairs_routed = artio::get_i64(r);
  s.pairs_failed = artio::get_i64(r);
  s.nodes_expanded = artio::get_i64(r);
  s.entries_decoded = artio::get_i64(r);
  s.raw_entries = artio::get_i64(r);
  s.negotiation_iterations = artio::get_i64(r);
  return s;
}

void put_bytes(BitWriter& w, const std::string& s) {
  artio::put_i64(w, static_cast<std::int64_t>(s.size()));
  for (const char c : s) w.write(static_cast<unsigned char>(c), 8);
}

std::string get_bytes(BitReader& r) {
  const std::int64_t n = artio::get_i64(r);
  // Bound BEFORE allocating: a corrupt length must reject, not bad_alloc.
  if (n < 0 || static_cast<std::uint64_t>(n) > r.remaining() / 8) {
    bad_journal("bad byte count");
  }
  std::string s(static_cast<std::size_t>(n), '\0');
  for (char& c : s) c = static_cast<char>(r.read(8));
  return s;
}

/// Rejects element counts that could not possibly fit in the remaining
/// bits (each element consumes at least `min_bits`) — corrupt counts must
/// fail typed, before any proportional allocation.
void check_count(const BitReader& r, std::int64_t n, std::size_t min_bits,
                 const char* what) {
  if (n < 0 || static_cast<std::uint64_t>(n) > r.remaining() / min_bits) {
    bad_journal(std::string("bad ") + what + " count");
  }
}

void put_bitvec(BitWriter& w, const BitVector& bits) {
  w.write(bits.size(), 64);
  w.write_vector(bits);
}

BitVector get_bitvec(BitReader& r) {
  const std::uint64_t nbits = r.read(64);
  return r.read_vector(static_cast<std::size_t>(nbits));
}

void put_rect(BitWriter& w, const Rect& rect) {
  artio::put_i32(w, rect.x);
  artio::put_i32(w, rect.y);
  artio::put_i32(w, rect.w);
  artio::put_i32(w, rect.h);
}

Rect get_rect(BitReader& r) {
  Rect rect;
  rect.x = artio::get_i32(r);
  rect.y = artio::get_i32(r);
  rect.w = artio::get_i32(r);
  rect.h = artio::get_i32(r);
  return rect;
}

void fp_u64(std::uint64_t& h, std::uint64_t v) { h = hash_u64(h, v); }
void fp_i64(std::uint64_t& h, long long v) {
  h = hash_u64(h, static_cast<std::uint64_t>(v));
}
void fp_decode(std::uint64_t& h, const DecodeStats& s) {
  fp_i64(h, s.pairs_routed);
  fp_i64(h, s.pairs_failed);
  fp_i64(h, s.nodes_expanded);
  fp_i64(h, s.entries_decoded);
  fp_i64(h, s.raw_entries);
  fp_i64(h, s.negotiation_iterations);
}
void fp_rect(std::uint64_t& h, const Rect& r) {
  fp_i64(h, r.x);
  fp_i64(h, r.y);
  fp_i64(h, r.w);
  fp_i64(h, r.h);
}

constexpr std::uint32_t kSnapshotVersion = 2;
constexpr std::uint32_t kOpenVersion = 1;

}  // namespace

std::uint64_t ReconfigService::state_fingerprint() const {
  constexpr char kTag[] = "vbs.service.state.v1";
  std::uint64_t h = fnv1a64(kTag, sizeof kTag - 1);
  // Configuration memory: the paper-level ground truth.
  const BitVector& config = rtc_.config_memory();
  for (const std::uint64_t w : config.words()) fp_u64(h, w);
  fp_u64(h, config.size());
  // Controller: tasks, serial fault counters, aggregate decode stats.
  fp_i64(h, rtc_.next_task_id());
  fp_u64(h, rtc_.decode_seq());
  fp_u64(h, rtc_.alloc_seq());
  fp_decode(h, rtc_.total_decode_stats());
  const std::vector<TaskId> ids = rtc_.task_ids();
  fp_u64(h, ids.size());
  for (const TaskId id : ids) {
    const TaskRecord& rec = rtc_.record(id);
    fp_i64(h, id);
    fp_rect(h, rec.rect);
    fp_u64(h, rec.stream_bits);
    fp_decode(h, rec.decode);  // wall time and threads_used excluded
  }
  // Cache: content keys in MRU order, counters, the insertion fault clock.
  const auto entries = cache_.entries_mru();
  fp_u64(h, entries.size());
  for (const auto& [key, value] : entries) {
    fp_u64(h, key);  // key IS the content hash; payload bytes add nothing
    fp_u64(h, value->footprint_bits());
  }
  fp_u64(h, cache_.size_bits());
  fp_i64(h, cache_.hits());
  fp_i64(h, cache_.misses());
  fp_i64(h, cache_.insertions());
  fp_i64(h, cache_.evictions());
  fp_i64(h, cache_.fault_drops());
  fp_u64(h, cache_.insert_seq());
  // Service scalars: request ids, the modeled clock, admission state.
  fp_i64(h, next_request_);
  fp_u64(h, use_seq_);
  fp_i64(h, now_ticks_);
  fp_u64(h, live_loads_);
  fp_i64(h, last_shed_);
  fp_u64(h, tenant_priority_.size());
  for (const auto& [tenant, prio] : tenant_priority_) {
    fp_i64(h, tenant);
    fp_i64(h, prio);
  }
  fp_u64(h, tenants_.size());
  for (const auto& [tenant, t] : tenants_) {
    fp_i64(h, tenant);
    fp_i64(h, t.priority);
    fp_i64(h, t.submitted);
    fp_i64(h, t.done);
    fp_i64(h, t.rejected);
    fp_i64(h, t.failed);
    fp_i64(h, t.shed);
    fp_i64(h, t.deadline_misses);
    fp_i64(h, t.retries);
    fp_i64(h, t.latency_ticks);
    fp_i64(h, t.queue_wait_ticks);
    fp_i64(h, t.backoff_ticks);
    fp_i64(h, t.spike_ticks);
    fp_i64(h, t.exec_ticks);
  }
  fp_u64(h, task_of_request_.size());
  for (const auto& [req, task] : task_of_request_) {
    fp_i64(h, req);
    fp_i64(h, task);
  }
  fp_u64(h, task_info_.size());
  for (const auto& [task, info] : task_info_) {
    fp_i64(h, task);
    fp_u64(h, info.content_hash);
    fp_u64(h, info.last_use);
    fp_i64(h, info.origin_request);
  }
  fp_u64(h, eviction_log_.size());
  for (const EvictionEvent& e : eviction_log_) {
    fp_i64(h, e.seq);
    fp_i64(h, e.task);
    fp_rect(h, e.rect);
    fp_i64(h, e.cause);
  }
  fp_i64(h, stats_.loads);
  fp_i64(h, stats_.unloads);
  fp_i64(h, stats_.relocates);
  fp_i64(h, stats_.rejected);
  fp_i64(h, stats_.failed);
  fp_i64(h, stats_.shed);
  fp_i64(h, stats_.deadline_misses);
  fp_i64(h, stats_.retries);
  fp_i64(h, stats_.faults_injected);
  fp_i64(h, stats_.latency_spike_ticks);
  fp_i64(h, stats_.warm_loads);
  fp_i64(h, stats_.cold_loads);
  fp_i64(h, stats_.relocates_cached);
  fp_i64(h, stats_.relocates_decoded);
  fp_i64(h, stats_.batches);
  fp_i64(h, stats_.task_evictions);
  fp_decode(h, stats_.decode);
  fp_u64(h, queue_.size());
  for (const Request& q : queue_) {
    fp_i64(h, q.id);
    fp_i64(h, static_cast<int>(q.kind));
    fp_u64(h, q.kind == RequestKind::kLoad ? stream_content_hash(q.stream)
                                           : 0);
    fp_i64(h, q.target);
    fp_i64(h, q.tenant);
    fp_i64(h, q.priority);
    fp_i64(h, q.attempt);
    fp_i64(h, q.shed ? 1 : 0);
    fp_i64(h, q.submitted_tick);
    fp_i64(h, q.not_before);
    fp_i64(h, q.retry_tick);
    fp_i64(h, q.queue_wait_ticks);
    fp_i64(h, q.backoff_ticks);
    fp_i64(h, q.spike_ticks);
    fp_i64(h, q.exec_ticks);
  }
  return h;
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
  put_str(p, opts_.policy);
  put_u32(p, opts_.evict_to_fit ? 1 : 0);
  put_u32(p, static_cast<std::uint32_t>(opts_.max_batch));
  put_u64(p, opts_.queue_limit);
  put_u64(p, static_cast<std::uint64_t>(opts_.deadline_ticks));
  put_u32(p, static_cast<std::uint32_t>(opts_.retry_limit));
  put_u64(p, static_cast<std::uint64_t>(opts_.retry_backoff_ticks));
  put_str(p, opts_.faults.spec());
  return p;
}

std::unique_ptr<ReconfigService> ReconfigService::construct_from_open(
    const std::string& open_payload, int threads) {
  try {
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
    o.policy = r.str();
    o.evict_to_fit = r.u32() != 0;
    o.max_batch = static_cast<int>(r.u32());
    o.queue_limit = static_cast<std::size_t>(r.u64());
    o.deadline_ticks = static_cast<long long>(r.u64());
    o.retry_limit = static_cast<int>(r.u32());
    o.retry_backoff_ticks = static_cast<long long>(r.u64());
    o.faults = FaultPlan::parse(r.str());
    if (!r.at_end()) bad_journal("trailing open bytes");
    if (threads > 0) o.threads = threads;
    return std::make_unique<ReconfigService>(spec, w, h, std::move(o));
  } catch (const VbsError& e) {
    if (e.code() == VbsErrc::kBadJournal) throw;
    bad_journal(e.what());
  } catch (const std::exception& e) {
    // Validation failures (ArchSpec, ServiceOptions, FaultPlan::parse) mean
    // the journal's configuration record is corrupt.
    bad_journal(e.what());
  }
}

BitVector ReconfigService::serialize_snapshot() const {
  BitWriter w;
  w.write(kSnapshotVersion, 32);
  put_bytes(w, serialize_open());
  // Controller.
  put_bitvec(w, rtc_.config_memory());
  artio::put_i32(w, rtc_.next_task_id());
  w.write(rtc_.decode_seq(), 64);
  w.write(rtc_.alloc_seq(), 64);
  put_decode_stats(w, rtc_.total_decode_stats());
  const std::vector<TaskId> ids = rtc_.task_ids();
  artio::put_i32(w, static_cast<std::int32_t>(ids.size()));
  for (const TaskId id : ids) {
    const TaskRecord& rec = rtc_.record(id);
    artio::put_i32(w, id);
    put_rect(w, rec.rect);
    artio::put_i64(w, static_cast<std::int64_t>(rec.stream_bits));
    put_decode_stats(w, rec.decode);
    artio::put_i32(w, rec.threads_used);
    put_bitvec(w, serialize_vbs(rtc_.image_of(id)));
  }
  // Cache (entries MRU -> LRU; restore_entry rebuilds the same order).
  artio::put_i64(w, cache_.hits());
  artio::put_i64(w, cache_.misses());
  artio::put_i64(w, cache_.insertions());
  artio::put_i64(w, cache_.evictions());
  artio::put_i64(w, cache_.fault_drops());
  w.write(cache_.insert_seq(), 64);
  const auto entries = cache_.entries_mru();
  artio::put_i32(w, static_cast<std::int32_t>(entries.size()));
  for (const auto& [key, value] : entries) {
    w.write(key, 64);
    put_bitvec(w, serialize_vbs(value->image));
    artio::put_i32(w, static_cast<std::int32_t>(value->payloads.size()));
    for (const BitVector& p : value->payloads) put_bitvec(w, p);
    put_decode_stats(w, value->decode);
  }
  // Service scalars and tables.
  artio::put_i64(w, next_request_);
  w.write(use_seq_, 64);
  artio::put_i64(w, now_ticks_);
  artio::put_i64(w, static_cast<std::int64_t>(live_loads_));
  artio::put_i64(w, last_shed_);
  artio::put_i32(w, static_cast<std::int32_t>(tenant_priority_.size()));
  for (const auto& [tenant, prio] : tenant_priority_) {
    artio::put_i32(w, tenant);
    artio::put_i32(w, prio);
  }
  artio::put_i32(w, static_cast<std::int32_t>(tenants_.size()));
  for (const auto& [tenant, t] : tenants_) {
    artio::put_i32(w, tenant);
    artio::put_i32(w, t.priority);
    artio::put_i64(w, t.submitted);
    artio::put_i64(w, t.done);
    artio::put_i64(w, t.rejected);
    artio::put_i64(w, t.failed);
    artio::put_i64(w, t.shed);
    artio::put_i64(w, t.deadline_misses);
    artio::put_i64(w, t.retries);
    artio::put_i64(w, t.latency_ticks);
    artio::put_i64(w, t.queue_wait_ticks);
    artio::put_i64(w, t.backoff_ticks);
    artio::put_i64(w, t.spike_ticks);
    artio::put_i64(w, t.exec_ticks);
  }
  artio::put_i32(w, static_cast<std::int32_t>(task_of_request_.size()));
  for (const auto& [req, task] : task_of_request_) {
    artio::put_i64(w, req);
    artio::put_i32(w, task);
  }
  artio::put_i32(w, static_cast<std::int32_t>(task_info_.size()));
  for (const auto& [task, info] : task_info_) {
    artio::put_i32(w, task);
    w.write(info.content_hash, 64);
    w.write(info.last_use, 64);
    artio::put_i64(w, info.origin_request);
  }
  artio::put_i32(w, static_cast<std::int32_t>(eviction_log_.size()));
  for (const EvictionEvent& e : eviction_log_) {
    artio::put_i64(w, e.seq);
    artio::put_i32(w, e.task);
    put_rect(w, e.rect);
    artio::put_i64(w, e.cause);
  }
  artio::put_i64(w, stats_.loads);
  artio::put_i64(w, stats_.unloads);
  artio::put_i64(w, stats_.relocates);
  artio::put_i64(w, stats_.rejected);
  artio::put_i64(w, stats_.failed);
  artio::put_i64(w, stats_.shed);
  artio::put_i64(w, stats_.deadline_misses);
  artio::put_i64(w, stats_.retries);
  artio::put_i64(w, stats_.faults_injected);
  artio::put_i64(w, stats_.latency_spike_ticks);
  artio::put_i64(w, stats_.warm_loads);
  artio::put_i64(w, stats_.cold_loads);
  artio::put_i64(w, stats_.relocates_cached);
  artio::put_i64(w, stats_.relocates_decoded);
  artio::put_i64(w, stats_.batches);
  artio::put_i64(w, stats_.task_evictions);
  put_decode_stats(w, stats_.decode);
  artio::put_i32(w, static_cast<std::int32_t>(queue_.size()));
  for (const Request& q : queue_) {
    artio::put_i64(w, q.id);
    w.write(static_cast<std::uint64_t>(q.kind), 8);
    put_bitvec(w, q.stream);
    artio::put_i64(w, q.target);
    artio::put_i32(w, q.tenant);
    artio::put_i32(w, q.priority);
    artio::put_i32(w, q.attempt);
    w.write_bit(q.shed);
    artio::put_i64(w, q.submitted_tick);
    artio::put_i64(w, q.not_before);
    artio::put_i64(w, q.retry_tick);
    artio::put_i64(w, q.queue_wait_ticks);
    artio::put_i64(w, q.backoff_ticks);
    artio::put_i64(w, q.spike_ticks);
    artio::put_i64(w, q.exec_ticks);
  }
  return w.take();
}

std::unique_ptr<ReconfigService> ReconfigService::restore_snapshot(
    const BitVector& snapshot, int threads) {
  try {
    BitReader r(snapshot);
    if (r.read(32) != kSnapshotVersion) {
      bad_journal("unsupported snapshot version");
    }
    auto svc = construct_from_open(get_bytes(r), threads);
    // Controller.
    svc->rtc_.restore_config_memory(get_bitvec(r));
    const TaskId next_id = artio::get_i32(r);
    const std::uint64_t decode_seq = r.read(64);
    const std::uint64_t alloc_seq = r.read(64);
    svc->rtc_.restore_counters(next_id, decode_seq, alloc_seq);
    svc->rtc_.set_total_decode_stats(get_decode_stats(r));
    const std::int32_t ntasks = artio::get_i32(r);
    check_count(r, ntasks, 64, "task");
    for (std::int32_t i = 0; i < ntasks; ++i) {
      TaskRecord rec;
      rec.id = artio::get_i32(r);
      rec.rect = get_rect(r);
      rec.stream_bits = static_cast<std::size_t>(artio::get_i64(r));
      rec.decode = get_decode_stats(r);
      rec.threads_used = artio::get_i32(r);
      svc->rtc_.restore_task(rec, deserialize_vbs(get_bitvec(r)));
    }
    // Cache.
    const long long hits = artio::get_i64(r);
    const long long misses = artio::get_i64(r);
    const long long insertions = artio::get_i64(r);
    const long long evictions = artio::get_i64(r);
    const long long fault_drops = artio::get_i64(r);
    const std::uint64_t insert_seq = r.read(64);
    svc->cache_.restore_counters(hits, misses, insertions, evictions,
                                 fault_drops, insert_seq);
    const std::int32_t nentries = artio::get_i32(r);
    check_count(r, nentries, 64, "cache entry");
    for (std::int32_t i = 0; i < nentries; ++i) {
      const std::uint64_t key = r.read(64);
      auto ds = std::make_shared<DecodedStream>();
      ds->image = deserialize_vbs(get_bitvec(r));
      const std::int32_t npayloads = artio::get_i32(r);
      check_count(r, npayloads, 64, "payload");
      ds->payloads.resize(static_cast<std::size_t>(npayloads));
      for (BitVector& p : ds->payloads) p = get_bitvec(r);
      ds->decode = get_decode_stats(r);
      svc->cache_.restore_entry(key, std::move(ds));
    }
    // Service scalars and tables.
    svc->next_request_ = artio::get_i64(r);
    svc->use_seq_ = r.read(64);
    svc->now_ticks_ = artio::get_i64(r);
    svc->live_loads_ = static_cast<std::size_t>(artio::get_i64(r));
    svc->last_shed_ = artio::get_i64(r);
    const std::int32_t nprio = artio::get_i32(r);
    check_count(r, nprio, 64, "priority");
    for (std::int32_t i = 0; i < nprio; ++i) {
      const int tenant = artio::get_i32(r);
      svc->tenant_priority_[tenant] = artio::get_i32(r);
    }
    const std::int32_t ntenants = artio::get_i32(r);
    check_count(r, ntenants, 64, "tenant");
    for (std::int32_t i = 0; i < ntenants; ++i) {
      const int tenant = artio::get_i32(r);
      TenantStats& t = svc->tenants_[tenant];
      t.priority = artio::get_i32(r);
      t.submitted = artio::get_i64(r);
      t.done = artio::get_i64(r);
      t.rejected = artio::get_i64(r);
      t.failed = artio::get_i64(r);
      t.shed = artio::get_i64(r);
      t.deadline_misses = artio::get_i64(r);
      t.retries = artio::get_i64(r);
      t.latency_ticks = artio::get_i64(r);
      t.queue_wait_ticks = artio::get_i64(r);
      t.backoff_ticks = artio::get_i64(r);
      t.spike_ticks = artio::get_i64(r);
      t.exec_ticks = artio::get_i64(r);
    }
    const std::int32_t nreq = artio::get_i32(r);
    check_count(r, nreq, 64, "request-map");
    for (std::int32_t i = 0; i < nreq; ++i) {
      const RequestId req = artio::get_i64(r);
      svc->task_of_request_[req] = artio::get_i32(r);
    }
    const std::int32_t ninfo = artio::get_i32(r);
    check_count(r, ninfo, 64, "task-info");
    for (std::int32_t i = 0; i < ninfo; ++i) {
      const TaskId task = artio::get_i32(r);
      TaskInfo& info = svc->task_info_[task];
      info.content_hash = r.read(64);
      info.last_use = r.read(64);
      info.origin_request = artio::get_i64(r);
    }
    const std::int32_t nevict = artio::get_i32(r);
    check_count(r, nevict, 64, "eviction");
    svc->eviction_log_.reserve(static_cast<std::size_t>(nevict));
    for (std::int32_t i = 0; i < nevict; ++i) {
      EvictionEvent e;
      e.seq = artio::get_i64(r);
      e.task = artio::get_i32(r);
      e.rect = get_rect(r);
      e.cause = artio::get_i64(r);
      svc->eviction_log_.push_back(e);
    }
    svc->stats_.loads = artio::get_i64(r);
    svc->stats_.unloads = artio::get_i64(r);
    svc->stats_.relocates = artio::get_i64(r);
    svc->stats_.rejected = artio::get_i64(r);
    svc->stats_.failed = artio::get_i64(r);
    svc->stats_.shed = artio::get_i64(r);
    svc->stats_.deadline_misses = artio::get_i64(r);
    svc->stats_.retries = artio::get_i64(r);
    svc->stats_.faults_injected = artio::get_i64(r);
    svc->stats_.latency_spike_ticks = artio::get_i64(r);
    svc->stats_.warm_loads = artio::get_i64(r);
    svc->stats_.cold_loads = artio::get_i64(r);
    svc->stats_.relocates_cached = artio::get_i64(r);
    svc->stats_.relocates_decoded = artio::get_i64(r);
    svc->stats_.batches = artio::get_i64(r);
    svc->stats_.task_evictions = artio::get_i64(r);
    svc->stats_.decode = get_decode_stats(r);
    const std::int32_t nqueue = artio::get_i32(r);
    check_count(r, nqueue, 64, "queue");
    for (std::int32_t i = 0; i < nqueue; ++i) {
      Request q;
      q.id = artio::get_i64(r);
      const std::uint64_t kind = r.read(8);
      if (kind > static_cast<std::uint64_t>(RequestKind::kRelocate)) {
        bad_journal("bad queued request kind");
      }
      q.kind = static_cast<RequestKind>(kind);
      q.stream = get_bitvec(r);
      q.target = artio::get_i64(r);
      q.tenant = artio::get_i32(r);
      q.priority = artio::get_i32(r);
      q.attempt = artio::get_i32(r);
      q.shed = r.read_bit();
      q.submitted_tick = artio::get_i64(r);
      q.not_before = artio::get_i64(r);
      q.retry_tick = artio::get_i64(r);
      q.queue_wait_ticks = artio::get_i64(r);
      q.backoff_ticks = artio::get_i64(r);
      q.spike_ticks = artio::get_i64(r);
      q.exec_ticks = artio::get_i64(r);
      // Wall clock is not part of the contract; restamp on the telemetry
      // clock so the restored request still reports a sane wall latency.
      q.submitted_ns = telem::now_ns();
      svc->queue_.push_back(std::move(q));
    }
    if (!r.at_end()) bad_journal("trailing snapshot bits");
    return svc;
  } catch (const VbsError& e) {
    if (e.code() == VbsErrc::kBadJournal) throw;
    bad_journal(e.what());  // truncation, bad VBS image, ... : corrupt
  } catch (const std::exception& e) {
    bad_journal(e.what());  // inconsistent snapshot (overlapping tasks, ...)
  }
}

void ReconfigService::journal_append(ServiceJournal::Kind kind,
                                     const std::string& payload) {
  try {
    journal_->append(kind, payload);
  } catch (const VbsError&) {
    journal_.reset();  // durability is gone; keep serving from memory
    throw;
  }
}

void ReconfigService::journal_append2(ServiceJournal::Kind k1,
                                      const std::string& p1,
                                      ServiceJournal::Kind k2,
                                      const std::string& p2) {
  try {
    journal_->append2(k1, p1, k2, p2);
  } catch (const VbsError&) {
    journal_.reset();
    throw;
  }
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
  try {
    journal_->compact(serialize_snapshot(), state_fingerprint());
  } catch (const VbsError&) {
    journal_.reset();
    throw;
  }
}

std::unique_ptr<ReconfigService> ReconfigService::recover(
    const std::string& dir, int threads, RecoveryInfo* info) {
  const ServiceJournal::ScanResult sr = ServiceJournal::scan(dir);
  RecoveryInfo ri;
  ri.records = static_cast<long long>(sr.records.size());
  ri.torn_tail = sr.torn_tail;
  ri.journal_bytes = sr.wal_bytes;
  ri.epoch = sr.epoch;

  std::unique_ptr<ReconfigService> svc;
  if (!sr.snapshot_path.empty()) {
    ri.from_snapshot = true;
    std::uint64_t stored_fp = 0;
    const BitVector snap =
        ServiceJournal::read_snapshot(sr.snapshot_path, &stored_fp);
    svc = restore_snapshot(snap, threads);
    if (svc->state_fingerprint() != stored_fp) {
      bad_journal("snapshot fingerprint mismatch");
    }
  } else {
    svc = construct_from_open(sr.records.front().payload, threads);
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
        if (svc->submit_load(std::move(stream), tenant) != id) {
          bad_journal("replayed load got a different request id");
        }
        // The shed decision re-derives deterministically; the journaled
        // companion (same append) must agree — unless it was torn off the
        // tail, which is the one legitimate crash window.
        if (svc->last_shed_ != kNoRequest) {
          if (i + 1 < sr.records.size()) {
            const ServiceJournal::Record& shed = sr.records[i + 1];
            if (shed.kind != ServiceJournal::Kind::kShed ||
                ByteReader(shed.payload, VbsErrc::kBadJournal, "journal shed")
                        .u64() != static_cast<std::uint64_t>(svc->last_shed_)) {
              bad_journal("shed record disagrees with replay");
            }
            ++i;
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
        svc->set_tenant_priority(tenant, priority);
        ++ri.admits;
        break;
      }
      case ServiceJournal::Kind::kCommit: {
        const std::uint64_t fp = r.u64();
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
