#include "rtc/controller.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/telemetry.h"

namespace vbs {

ReconfigController::ReconfigController(const ArchSpec& spec, int width,
                                       int height)
    : layout_(spec, width, height),
      config_(layout_.config_bits_total()),
      alloc_(width, height) {}

ReconfigController::LoadedTask& ReconfigController::lookup(TaskId id) {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    throw std::out_of_range("rtc: unknown task " + std::to_string(id));
  }
  return it->second;
}

const TaskRecord& ReconfigController::record(TaskId id) const {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    throw std::out_of_range("rtc: unknown task " + std::to_string(id));
  }
  return it->second.rec;
}

const VbsImage& ReconfigController::image_of(TaskId id) const {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    throw std::out_of_range("rtc: unknown task " + std::to_string(id));
  }
  return it->second.image;
}

std::vector<TaskId> ReconfigController::task_ids() const {
  std::vector<TaskId> ids;
  ids.reserve(tasks_.size());
  for (const auto& [id, task] : tasks_) ids.push_back(id);
  return ids;
}

std::shared_ptr<DecodedStream> ReconfigController::decode(VbsImage img,
                                                          double& seconds) {
  if (fault_plan_ != nullptr && fault_plan_->decode_fails(decode_seq_++)) {
    telem::counter_add("rtc.decode.fault_injected");
    throw VbsError(VbsErrc::kFaultInjected, "rtc: injected decode fault");
  }
  telem::Span span("rtc", "decode");
  const std::uint64_t t0 = telem::now_ns();
  auto decoded = decode_stream(std::move(img));
  seconds = telem::seconds_since(t0);
  const std::size_t n = decoded->payloads.size();
  span.arg("entries", n);
  telem::counter_add("rtc.decode.ops");
  telem::counter_add("rtc.decode.entries", static_cast<long long>(n));
  telem::histogram_record("rtc.decode.seconds", seconds);
  return decoded;
}

void ReconfigController::clear_region(const Rect& r) {
  // The frames of a row's macros are contiguous: one range per row.
  const std::size_t row_bits =
      static_cast<std::size_t>(r.w) *
      static_cast<std::size_t>(layout_.spec().nraw_bits());
  for (int y = r.y; y < r.y + r.h; ++y) {
    config_.clear_range(
        layout_.macro_config_offset(layout_.macro_index(r.x, y)), row_bits);
  }
}

void ReconfigController::write_decoded(const VbsImage& img,
                                       const std::vector<BitVector>& payloads,
                                       Point origin) {
  for (std::size_t i = 0; i < img.entries.size(); ++i) {
    write_entry_config(img, img.entries[i], payloads[i], layout_, origin,
                       config_);
  }
}

void ReconfigController::check_arch(const VbsImage& img) const {
  if (img.spec.chan_width != layout_.spec().chan_width ||
      img.spec.lut_k != layout_.spec().lut_k ||
      img.spec.sb_pattern != layout_.spec().sb_pattern) {
    // Typed (not logic_error): a stream encoded for another architecture
    // is hostile input a tenant can submit, not a programming error.
    throw VbsError(VbsErrc::kArchMismatch, "rtc: task architecture mismatch");
  }
}

void ReconfigController::check_payloads(
    const VbsImage& img, const std::vector<BitVector>& payloads) const {
  if (payloads.size() != img.entries.size()) {
    throw std::logic_error("rtc: payload count does not match entries");
  }
  // Every decoded payload (and every raw fallback) is exactly the region's
  // c^2 * (Nraw - NLB) routing bits; anything else would read or write out
  // of bounds in write_entry_config.
  const std::size_t want =
      vbs_field_widths(img.spec, img.cluster, img.task_w, img.task_h).raw;
  for (const BitVector& p : payloads) {
    if (p.size() != want) {
      throw std::logic_error("rtc: payload size mismatch");
    }
  }
}

TaskId ReconfigController::commit(VbsImage img,
                                  const std::vector<BitVector>& payloads,
                                  TaskRecord rec) {
  alloc_.occupy(rec.rect);  // throws if not free / out of bounds
  rec.id = next_id_++;
  try {
    write_decoded(img, payloads, {rec.rect.x, rec.rect.y});
  } catch (...) {
    alloc_.release(rec.rect);
    throw;
  }
  total_stats_ += rec.decode;
  const TaskId id = rec.id;
  tasks_.emplace(id, LoadedTask{std::move(rec), std::move(img)});
  return id;
}

TaskId ReconfigController::load_decoded(const VbsImage& img,
                                        const std::vector<BitVector>& payloads,
                                        std::size_t stream_bits, Point origin,
                                        const DecodeStats& decode,
                                        double decode_seconds,
                                        int threads_used) {
  check_arch(img);
  check_payloads(img, payloads);
  if (fault_plan_ != nullptr && fault_plan_->alloc_fails(alloc_seq_++)) {
    // Before occupy: an injected allocation failure leaves the allocator
    // and the configuration memory untouched, like a real transient one.
    throw VbsError(VbsErrc::kFaultInjected, "rtc: injected allocation fault");
  }
  TaskRecord rec;
  rec.rect = {origin.x, origin.y, img.task_w, img.task_h};
  rec.stream_bits = stream_bits;
  rec.decode = decode;
  rec.decode_seconds = decode_seconds;
  rec.threads_used = threads_used;
  return commit(img, payloads, std::move(rec));
}

void ReconfigController::relocate_decoded(
    TaskId id, Point new_origin, const std::vector<BitVector>& payloads) {
  LoadedTask& task = lookup(id);
  check_payloads(task.image, payloads);
  const Rect old_rect = task.rec.rect;
  const Rect new_rect{new_origin.x, new_origin.y, old_rect.w, old_rect.h};
  if (new_rect == old_rect) return;
  // Same constraint as relocate: no shadow configuration plane, so the new
  // region may not overlap the old one.
  alloc_.occupy(new_rect);
  try {
    write_decoded(task.image, payloads, new_origin);
  } catch (...) {
    alloc_.release(new_rect);
    throw;
  }
  clear_region(old_rect);
  alloc_.release(old_rect);
  task.rec.rect = new_rect;
}

TaskId ReconfigController::load(const BitVector& vbs_stream) {
  const VbsImage img = deserialize_vbs(vbs_stream);
  const auto slot = alloc_.find_free(img.task_w, img.task_h);
  if (!slot) return kNoTask;
  return load_at(vbs_stream, *slot);
}

TaskId ReconfigController::load_at(const BitVector& vbs_stream, Point origin) {
  VbsImage img = deserialize_vbs(vbs_stream);
  check_arch(img);
  TaskRecord rec;
  rec.rect = {origin.x, origin.y, img.task_w, img.task_h};
  rec.stream_bits = vbs_stream.size();
  const auto decoded = decode(std::move(img), rec.decode_seconds);
  rec.decode = decoded->decode;
  return commit(std::move(decoded->image), decoded->payloads, std::move(rec));
}

void ReconfigController::unload(TaskId id) {
  LoadedTask& task = lookup(id);
  clear_region(task.rec.rect);
  alloc_.release(task.rec.rect);
  tasks_.erase(id);
}

void ReconfigController::relocate(TaskId id, Point new_origin) {
  LoadedTask& task = lookup(id);
  if (new_origin == Point{task.rec.rect.x, task.rec.rect.y}) return;
  double seconds = 0.0;
  const auto decoded = decode(task.image, seconds);
  relocate_decoded(id, new_origin, decoded->payloads);
  task.rec.decode += decoded->decode;
  task.rec.decode_seconds = seconds;
  task.rec.threads_used = 1;
  total_stats_ += decoded->decode;
}

void ReconfigController::defragment() {
  // Greedy compaction: tasks in increasing current-origin order are moved
  // to the first free slot, which is never further from the origin.
  std::vector<TaskId> ids = task_ids();
  std::sort(ids.begin(), ids.end(), [&](TaskId a, TaskId b) {
    const Rect& ra = record(a).rect;
    const Rect& rb = record(b).rect;
    if (ra.y != rb.y) return ra.y < rb.y;
    return ra.x < rb.x;
  });
  for (const TaskId id : ids) {
    const Rect r = record(id).rect;
    // Temporarily free our own tiles so the search can slide us leftward
    // over them; a found slot must not overlap the old region (no shadow
    // plane), so re-check before moving.
    alloc_.release(r);
    const auto slot = alloc_.find_free(r.w, r.h);
    alloc_.occupy(r);
    if (!slot) continue;
    const Rect target{slot->x, slot->y, r.w, r.h};
    if (target == r || target.overlaps(r)) continue;
    if ((target.y > r.y) || (target.y == r.y && target.x >= r.x)) continue;
    relocate(id, {target.x, target.y});
  }
}

void ReconfigController::restore_config_memory(const BitVector& config) {
  if (config.size() != config_.size()) {
    throw std::logic_error("restore_config_memory: size mismatch");
  }
  config_ = config;
}

void ReconfigController::restore_task(const TaskRecord& rec, VbsImage image) {
  if (tasks_.count(rec.id) != 0) {
    throw std::logic_error("restore_task: duplicate task id");
  }
  alloc_.occupy(rec.rect);  // throws std::logic_error if unavailable
  tasks_[rec.id] = LoadedTask{rec, std::move(image)};
}

}  // namespace vbs
