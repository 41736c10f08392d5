#include "pipeline/pipeline_metrics.hpp"

namespace tacc::pipeline {

PipelineMetricsSnapshot PipelineMetrics::snapshot() const noexcept {
  PipelineMetricsSnapshot s;
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.lines = lines_.load(std::memory_order_relaxed);
  s.records = records_.load(std::memory_order_relaxed);
  s.points = points_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.parse_time_ns = parse_time_ns_.load(std::memory_order_relaxed);
  s.build_time_ns = build_time_ns_.load(std::memory_order_relaxed);
  s.put_time_ns = put_time_ns_.load(std::memory_order_relaxed);
  s.allocations = allocations_.load(std::memory_order_relaxed);
  return s;
}

void PipelineMetrics::reset() noexcept {
  bytes_read_.store(0, std::memory_order_relaxed);
  lines_.store(0, std::memory_order_relaxed);
  records_.store(0, std::memory_order_relaxed);
  points_.store(0, std::memory_order_relaxed);
  batches_.store(0, std::memory_order_relaxed);
  parse_time_ns_.store(0, std::memory_order_relaxed);
  build_time_ns_.store(0, std::memory_order_relaxed);
  put_time_ns_.store(0, std::memory_order_relaxed);
  allocations_.store(0, std::memory_order_relaxed);
}

}  // namespace tacc::pipeline
