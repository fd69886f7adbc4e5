#include "graph/graph_engine.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>
#include <set>

namespace hana::graph {

GraphEngine::GraphEngine() {
  auto vertex_schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"id", DataType::kInt64, false}, {"label", DataType::kString, false}});
  auto edge_schema = std::make_shared<Schema>(std::vector<ColumnDef>{
      {"src", DataType::kInt64, false},
      {"dst", DataType::kInt64, false},
      {"label", DataType::kString, false},
      {"weight", DataType::kDouble, false}});
  vertices_ = std::make_unique<storage::ColumnTable>(vertex_schema);
  edges_ = std::make_unique<storage::ColumnTable>(edge_schema);
}

size_t GraphEngine::num_vertices() const { return vertices_->live_rows(); }
size_t GraphEngine::num_edges() const { return edges_->live_rows(); }

Status GraphEngine::AddVertex(int64_t id, const std::string& label) {
  MutexLock lock(mu_);
  if (vertex_index_.count(id) > 0) {
    return Status::AlreadyExists("vertex exists: " + std::to_string(id));
  }
  vertex_index_[id] = vertices_->num_rows();
  csr_valid_ = false;
  return vertices_->AppendRows({{Value::Int(id), Value::String(label)}});
}

Status GraphEngine::AddEdge(int64_t src, int64_t dst,
                            const std::string& label, double weight) {
  MutexLock lock(mu_);
  if (vertex_index_.count(src) == 0 || vertex_index_.count(dst) == 0) {
    return Status::NotFound("edge endpoints must exist");
  }
  csr_valid_ = false;
  return edges_->AppendRows({{Value::Int(src), Value::Int(dst),
                              Value::String(label), Value::Double(weight)}});
}

Result<size_t> GraphEngine::VertexIndex(int64_t id) const {
  auto it = vertex_index_.find(id);
  if (it == vertex_index_.end()) {
    return Status::NotFound("vertex not found: " + std::to_string(id));
  }
  return it->second;
}

void GraphEngine::BuildCsr() {
  MutexLock lock(mu_);
  size_t n = vertices_->num_rows();
  ids_.assign(n, 0);
  for (const auto& [id, index] : vertex_index_) ids_[index] = id;

  std::vector<std::vector<size_t>> adjacency(n);
  std::vector<std::vector<double>> edge_weights(n);
  std::vector<std::vector<std::string>> labels(n);
  for (size_t e = 0; e < edges_->num_rows(); ++e) {
    if (edges_->IsDeleted(e)) continue;
    std::vector<Value> row = edges_->GetRow(e);
    size_t src = vertex_index_.at(row[0].int_value());
    size_t dst = vertex_index_.at(row[1].int_value());
    adjacency[src].push_back(dst);
    edge_weights[src].push_back(row[3].double_value());
    labels[src].push_back(row[2].string_value());
  }
  offsets_.assign(n + 1, 0);
  targets_.clear();
  weights_.clear();
  edge_labels_.clear();
  for (size_t v = 0; v < n; ++v) {
    offsets_[v] = targets_.size();
    for (size_t i = 0; i < adjacency[v].size(); ++i) {
      targets_.push_back(adjacency[v][i]);
      weights_.push_back(edge_weights[v][i]);
      edge_labels_.push_back(labels[v][i]);
    }
  }
  offsets_[n] = targets_.size();
  csr_valid_ = true;
}

Result<std::vector<int64_t>> GraphEngine::Neighbors(
    int64_t id, const std::string& label) const {
  MutexLock lock(mu_);
  if (!csr_valid_) return Status::Internal("call BuildCsr() first");
  HANA_ASSIGN_OR_RETURN(size_t v, VertexIndex(id));
  std::vector<int64_t> out;
  for (size_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
    if (!label.empty() && edge_labels_[e] != label) continue;
    out.push_back(ids_[targets_[e]]);
  }
  return out;
}

Result<std::map<int64_t, int64_t>> GraphEngine::Bfs(int64_t start) const {
  MutexLock lock(mu_);
  if (!csr_valid_) return Status::Internal("call BuildCsr() first");
  HANA_ASSIGN_OR_RETURN(size_t s, VertexIndex(start));
  std::map<int64_t, int64_t> dist;
  std::vector<int64_t> d(ids_.size(), -1);
  std::deque<size_t> queue{s};
  d[s] = 0;
  while (!queue.empty()) {
    size_t v = queue.front();
    queue.pop_front();
    dist[ids_[v]] = d[v];
    for (size_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      size_t t = targets_[e];
      if (d[t] < 0) {
        d[t] = d[v] + 1;
        queue.push_back(t);
      }
    }
  }
  return dist;
}

Result<int64_t> GraphEngine::ShortestPathHops(int64_t from, int64_t to) const {
  HANA_ASSIGN_OR_RETURN(auto dist, Bfs(from));
  auto it = dist.find(to);
  return it == dist.end() ? -1 : it->second;
}

Result<double> GraphEngine::ShortestPathWeight(int64_t from,
                                               int64_t to) const {
  MutexLock lock(mu_);
  if (!csr_valid_) return Status::Internal("call BuildCsr() first");
  HANA_ASSIGN_OR_RETURN(size_t s, VertexIndex(from));
  HANA_ASSIGN_OR_RETURN(size_t t, VertexIndex(to));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(ids_.size(), kInf);
  using Entry = std::pair<double, size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[s] = 0;
  heap.push({0, s});
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    if (v == t) return d;
    for (size_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      double nd = d + weights_[e];
      if (nd < dist[targets_[e]]) {
        dist[targets_[e]] = nd;
        heap.push({nd, targets_[e]});
      }
    }
  }
  return Status::NotFound("no path");
}

Result<size_t> GraphEngine::TriangleCount() const {
  MutexLock lock(mu_);
  if (!csr_valid_) return Status::Internal("call BuildCsr() first");
  // Undirected triangle counting over the symmetrized adjacency.
  std::vector<std::set<size_t>> adjacency(ids_.size());
  for (size_t v = 0; v < ids_.size(); ++v) {
    for (size_t e = offsets_[v]; e < offsets_[v + 1]; ++e) {
      size_t t = targets_[e];
      if (t == v) continue;
      adjacency[v].insert(t);
      adjacency[t].insert(v);
    }
  }
  size_t triangles = 0;
  for (size_t v = 0; v < ids_.size(); ++v) {
    for (size_t u : adjacency[v]) {
      if (u <= v) continue;
      for (size_t w : adjacency[u]) {
        if (w <= u) continue;
        if (adjacency[v].count(w) > 0) ++triangles;
      }
    }
  }
  return triangles;
}

Result<size_t> GraphEngine::OutDegree(int64_t id) const {
  MutexLock lock(mu_);
  if (!csr_valid_) return Status::Internal("call BuildCsr() first");
  HANA_ASSIGN_OR_RETURN(size_t v, VertexIndex(id));
  return offsets_[v + 1] - offsets_[v];
}

storage::Table GraphEngine::VerticesTable() const {
  storage::Table table(vertices_->schema());
  for (size_t r = 0; r < vertices_->num_rows(); ++r) {
    if (!vertices_->IsDeleted(r)) table.AppendRow(vertices_->GetRow(r));
  }
  return table;
}

storage::Table GraphEngine::EdgesTable() const {
  storage::Table table(edges_->schema());
  for (size_t r = 0; r < edges_->num_rows(); ++r) {
    if (!edges_->IsDeleted(r)) table.AppendRow(edges_->GetRow(r));
  }
  return table;
}

}  // namespace hana::graph
