#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/logging.h"

namespace vsan {
namespace serve {

BatchQueue::BatchQueue(FlushFn flush, const Options& options)
    : flush_(std::move(flush)), options_(options) {
  VSAN_CHECK(flush_ != nullptr);
  VSAN_CHECK_GE(options_.max_batch, 1);
  VSAN_CHECK_GE(options_.max_wait_us, 0);
  VSAN_CHECK_GE(options_.max_queue, 1);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  // Batch sizes 1..max: unit-wide buckets resolve exactly on this range.
  std::vector<double> size_bounds;
  for (int32_t b = 1; b <= std::max(options_.max_batch, 1); ++b) {
    size_bounds.push_back(static_cast<double>(b));
  }
  const std::string& prefix = options_.metric_prefix;
  batch_size_hist_ =
      registry.GetSlidingHistogram(prefix + ".batch_size", size_bounds);
  queue_wait_hist_ = registry.GetSlidingHistogram(
      prefix + ".queue_wait_us", obs::ExponentialBuckets(10.0, 2.0, 16));
  queue_depth_gauge_ = registry.GetGauge(prefix + ".queue_depth");
  rejected_counter_ = registry.GetCounter(prefix + ".rejected");
  deadline_counter_ = registry.GetCounter(prefix + ".deadline_expired");
}

BatchQueue::~BatchQueue() { Stop(); }

void BatchQueue::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  VSAN_CHECK(!started_) << "BatchQueue::Start called twice";
  started_ = true;
  stopping_ = false;
  flush_thread_ = std::thread([this] { FlushLoop(); });
}

void BatchQueue::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      // Never started, or a Stop is already draining: reject stragglers so
      // their futures fire, and bail.
      stopping_ = true;
      if (!started_) {
        for (Job* job : queue_) job->done.set_value(EncodeStatus::kShutdown);
        queue_.clear();
      }
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  flush_thread_.join();
  started_ = false;
}

EncodeStatus BatchQueue::Submit(Job* job) {
  job->enqueue_ns = SteadyNowNs();
  // Already late on arrival (e.g. stage 1 ate the whole budget): shed here
  // rather than spending a queue slot on work no one is waiting for.
  if (job->deadline_ns > 0 && job->enqueue_ns >= job->deadline_ns) {
    deadline_counter_->Increment();
    return EncodeStatus::kDeadlineExceeded;
  }
  std::future<EncodeStatus> done = job->done.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ || !started_) return EncodeStatus::kShutdown;
    if (static_cast<int32_t>(queue_.size()) >= options_.max_queue) {
      rejected_counter_->Increment();
      return EncodeStatus::kRejected;
    }
    queue_.push_back(job);
    queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  // `job` lives on the caller's stack until the flush thread fulfills the
  // promise, so its borrowed in/out pointers stay valid.
  return done.get();
}

int64_t BatchQueue::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

int64_t BatchQueue::flushes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushes_;
}

void BatchQueue::FlushLoop() {
  std::vector<Job*> slice;
  slice.reserve(static_cast<size_t>(options_.max_batch));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return !queue_.empty() || stopping_; });
    if (queue_.empty() && stopping_) break;
    // A batch is forming.  Hold the slice open until it fills or the
    // oldest job's wait budget runs out (whichever first); Stop() also
    // cuts the wait short so drains never sleep out the full max_wait.
    if (static_cast<int32_t>(queue_.size()) < options_.max_batch &&
        options_.max_wait_us > 0) {
      const auto deadline =
          std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(queue_.front()->enqueue_ns)) +
          std::chrono::microseconds(options_.max_wait_us);
      cv_.wait_until(lock, deadline, [this] {
        return static_cast<int32_t>(queue_.size()) >= options_.max_batch ||
               stopping_;
      });
      if (queue_.empty()) continue;  // raced with nothing left to do
    }
    // Shed expired jobs before they consume batch slots: a GEMM row for a
    // request whose client already timed out is pure waste, and worse, it
    // delays the requests that can still make their deadlines.
    const int64_t shed_now_ns = SteadyNowNs();
    int64_t shed = 0;
    for (auto it = queue_.begin(); it != queue_.end();) {
      Job* job = *it;
      if (job->deadline_ns > 0 && shed_now_ns >= job->deadline_ns) {
        it = queue_.erase(it);
        ++shed;
        deadline_counter_->Increment();
        // Waking the submitter under the lock is safe: Submit blocks on
        // the future without holding mu_.
        job->done.set_value(EncodeStatus::kDeadlineExceeded);
      } else {
        ++it;
      }
    }
    if (shed > 0) {
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
      if (queue_.empty()) continue;
    }
    const int32_t take = std::min<int32_t>(
        options_.max_batch, static_cast<int32_t>(queue_.size()));
    slice.assign(queue_.begin(), queue_.begin() + take);
    queue_.erase(queue_.begin(), queue_.begin() + take);
    queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    ++flushes_;
    lock.unlock();
    fault::MaybeDelayServeFlush();  // chaos: flush-thread scheduler jitter
    const int64_t now_ns = SteadyNowNs();
    for (Job* job : slice) {
      queue_wait_hist_->Observe(
          static_cast<double>(now_ns - job->enqueue_ns) / 1000.0);
    }
    batch_size_hist_->Observe(static_cast<double>(slice.size()));
    flush_(slice);
    slice.clear();
    lock.lock();
  }
  queue_depth_gauge_->Set(0.0);
}

RequestBatcher::RequestBatcher(EncodeFn encode, int64_t dim,
                               const Options& options)
    : encode_(std::move(encode)),
      dim_(dim),
      queue_([this](const std::vector<BatchQueue::Job*>& slice) {
        Flush(slice);
      }, options) {
  VSAN_CHECK(encode_ != nullptr);
  VSAN_CHECK_GT(dim_, 0);
}

EncodeStatus RequestBatcher::Encode(const std::vector<int32_t>& history,
                                    std::vector<float>* query,
                                    int64_t deadline_ns) {
  EncodeJob job;
  job.deadline_ns = deadline_ns;
  job.history = &history;
  job.query = query;
  return queue_.Submit(&job);
}

void RequestBatcher::Flush(const std::vector<BatchQueue::Job*>& slice) {
  fault::MaybeStallServeEncode();  // chaos: slow/overloaded encoder
  std::vector<std::vector<int32_t>> fold_ins;
  fold_ins.reserve(slice.size());
  for (BatchQueue::Job* job : slice) {
    fold_ins.push_back(*static_cast<EncodeJob*>(job)->history);
  }
  std::vector<float> queries;
  const bool ok = encode_(fold_ins, &queries);
  const bool sized =
      ok && queries.size() == slice.size() * static_cast<size_t>(dim_);
  for (size_t i = 0; i < slice.size(); ++i) {
    EncodeJob* job = static_cast<EncodeJob*>(slice[i]);
    if (sized) {
      job->query->assign(queries.begin() + static_cast<int64_t>(i) * dim_,
                         queries.begin() + static_cast<int64_t>(i + 1) * dim_);
      job->done.set_value(EncodeStatus::kOk);
    } else {
      job->done.set_value(EncodeStatus::kError);
    }
  }
}

ScoreBatcher::ScoreBatcher(const FactorizedHead& head,
                           const Options& options)
    : head_(head),
      queue_([this](const std::vector<BatchQueue::Job*>& slice) {
        Flush(slice);
      }, options) {
  VSAN_CHECK(head_.weights != nullptr);
  VSAN_CHECK_GT(head_.dim, 0);
  VSAN_CHECK_GT(head_.num_rows, 0);
}

EncodeStatus ScoreBatcher::Score(const std::vector<float>& query,
                                 int32_t fetch,
                                 std::vector<eval::ScoredItem>* top,
                                 int64_t deadline_ns) {
  VSAN_CHECK_EQ(static_cast<int64_t>(query.size()), head_.dim);
  ScoreJob job;
  job.deadline_ns = deadline_ns;
  job.query = &query;
  job.fetch = fetch;
  job.top = top;
  return queue_.Submit(&job);
}

void ScoreBatcher::Flush(const std::vector<BatchQueue::Job*>& slice) {
  const int64_t batch = static_cast<int64_t>(slice.size());
  const int64_t dim = head_.dim;
  const int64_t rows = head_.num_rows;
  queries_.resize(static_cast<size_t>(batch * dim));
  for (int64_t i = 0; i < batch; ++i) {
    const ScoreJob* job = static_cast<const ScoreJob*>(slice[i]);
    std::memcpy(queries_.data() + i * dim, job->query->data(),
                sizeof(float) * static_cast<size_t>(dim));
  }
  // One M=batch GEMM against the whole head, bias included: each row is
  // bitwise what the model's own ScoreInto (an M=1 call of the same
  // helper) produces.
  scores_.resize(static_cast<size_t>(batch * rows));
  head_.ScoreQueries(queries_.data(), batch, scores_.data());
  for (int64_t i = 0; i < batch; ++i) {
    ScoreJob* job = static_cast<ScoreJob*>(slice[i]);
    const float* row_scores = scores_.data() + i * rows;
    collector_.Reset(job->fetch);
    for (int64_t row = 1; row < rows; ++row) {
      collector_.Offer(static_cast<int32_t>(row), row_scores[row]);
    }
    job->top->clear();
    collector_.DrainSortedTo(job->top);
    job->done.set_value(EncodeStatus::kOk);
  }
}

}  // namespace serve
}  // namespace vsan
