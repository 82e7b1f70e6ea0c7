#include "transfer/transfer_service.hpp"

#include <stdexcept>

#include "util/crc32.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace mfw::transfer {

namespace {
constexpr const char* kComponent = "transfer";
}

TransferService::TransferService(sim::SimEngine& engine, sim::FlowLink& link)
    : engine_(engine), link_(link) {}

TransferTaskId TransferService::submit(TransferRequest request,
                                       EventCallback on_event) {
  if (!request.source || !request.destination)
    throw std::invalid_argument("TransferRequest needs source + destination");
  if (request.parallel_streams <= 0)
    throw std::invalid_argument("TransferRequest needs >= 1 stream");

  std::vector<std::string> paths = request.paths;
  if (paths.empty()) {
    if (request.pattern.empty())
      throw std::invalid_argument("TransferRequest needs paths or a pattern");
    for (const auto& info : request.source->list(request.pattern))
      paths.push_back(info.path);
  }
  if (paths.empty())
    throw std::invalid_argument("TransferRequest matched no files");

  const TransferTaskId id{next_id_++};
  Task task;
  task.request = std::move(request);
  task.on_event = std::move(on_event);
  task.pending = std::move(paths);
  task.status.total_files = task.pending.size();
  task.status.started_at = engine_.now();
  for (const auto& path : task.pending)
    task.status.total_bytes += task.request.source->file_size(path);
  auto [it, inserted] = tasks_.emplace(id.id, std::move(task));
  emit(it->second, id, TransferEventKind::kStarted);
  MFW_INFO(kComponent, "task ", id.id, ": ", it->second.status.total_files,
           " files queued to '", it->second.request.dest_prefix, "'");
  pump(id.id);
  return id;
}

const TransferTaskStatus& TransferService::status(TransferTaskId id) const {
  const auto it = tasks_.find(id.id);
  if (it == tasks_.end())
    throw std::invalid_argument("unknown transfer task id");
  return it->second.status;
}

void TransferService::pump(std::uint64_t task_id) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end()) return;
  Task& task = it->second;
  if (task.status.failed) return;
  while (task.in_flight < task.request.parallel_streams &&
         !task.pending.empty()) {
    const std::string path = task.pending.back();
    task.pending.pop_back();
    ++task.in_flight;
    move_file(task_id, path, /*attempt=*/1);
  }
  if (task.in_flight == 0 && task.pending.empty() &&
      task.status.done_files == task.status.total_files) {
    task.status.finished_at = engine_.now();
    emit(task, TransferTaskId{task_id}, TransferEventKind::kSucceeded);
    MFW_INFO(kComponent, "task ", task_id, " succeeded: ",
             task.status.done_files, " files");
  }
}

void TransferService::move_file(std::uint64_t task_id,
                                const std::string& src_path, int attempt) {
  Task& task = tasks_.at(task_id);
  std::uint64_t bytes = 0;
  try {
    bytes = task.request.source->file_size(src_path);
  } catch (const std::exception&) {
    // Fall through with a 1-byte flow; the read below reports the error.
  }
  // Zero-byte files move instantly; FlowLink requires positive sizes.
  const double flow_bytes = bytes > 0 ? static_cast<double>(bytes) : 1.0;
  link_.start_flow(
      flow_bytes, task.request.per_stream_cap_bps,
      [this, task_id, src_path, attempt](double /*mean_bps*/) {
        auto it = tasks_.find(task_id);
        if (it == tasks_.end()) return;
        Task& task = it->second;
        const TransferTaskId id{task_id};
        try {
          const auto data = task.request.source->read_file(src_path);
          const std::string dst_path = util::path_join(
              task.request.dest_prefix, util::path_basename(src_path));
          // The destination shares the source's buffer; nothing is copied.
          task.request.destination->write_file(dst_path, data);
          if (task.request.verify_checksum) {
            const auto landed = task.request.destination->read_file(dst_path);
            if (util::crc32(landed) != util::crc32(data))
              throw std::runtime_error("checksum mismatch on " + dst_path);
          }
          task.status.moved_bytes += data.size();
          ++task.status.done_files;
          --task.in_flight;
          emit(task, id, TransferEventKind::kFileDone, dst_path);
          pump(task_id);
        } catch (const std::exception& e) {
          if (attempt <= task.request.max_retries) {
            ++task.status.retries;
            MFW_WARN(kComponent, "task ", task_id, ": retrying ", src_path,
                     " (attempt ", attempt + 1, "): ", e.what());
            move_file(task_id, src_path, attempt + 1);
            return;
          }
          task.status.failed = true;
          task.status.finished_at = engine_.now();
          --task.in_flight;
          emit(task, id, TransferEventKind::kFailed, src_path, e.what());
          MFW_ERROR(kComponent, "task ", task_id, " failed: ", e.what());
        }
      });
}

void TransferService::emit(Task& task, TransferTaskId id,
                           TransferEventKind kind, const std::string& path,
                           const std::string& message) {
  if (!task.on_event) return;
  TransferEvent event;
  event.kind = kind;
  event.task = id;
  event.time = engine_.now();
  event.path = path;
  event.message = message;
  task.on_event(event);
}

}  // namespace mfw::transfer
