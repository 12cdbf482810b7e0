#include "src/gir/pattern.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace gopt {

int Pattern::AddVertex(std::string alias, TypeConstraint tc, int id) {
  if (id < 0) id = next_vertex_id_;
  next_vertex_id_ = std::max(next_vertex_id_, id + 1);
  PatternVertex v;
  v.id = id;
  v.alias = std::move(alias);
  v.tc = std::move(tc);
  vertices_.push_back(std::move(v));
  return id;
}

int Pattern::AddEdge(int src, int dst, std::string alias, TypeConstraint tc,
                     Direction dir, int id) {
  if (id < 0) id = next_edge_id_;
  next_edge_id_ = std::max(next_edge_id_, id + 1);
  PatternEdge e;
  e.id = id;
  e.src = src;
  e.dst = dst;
  e.alias = std::move(alias);
  e.tc = std::move(tc);
  e.dir = dir;
  edges_.push_back(std::move(e));
  return id;
}

const PatternVertex& Pattern::VertexById(int id) const {
  for (const auto& v : vertices_) {
    if (v.id == id) return v;
  }
  throw std::runtime_error("Pattern: no vertex with id " + std::to_string(id));
}

PatternVertex& Pattern::VertexById(int id) {
  for (auto& v : vertices_) {
    if (v.id == id) return v;
  }
  throw std::runtime_error("Pattern: no vertex with id " + std::to_string(id));
}

const PatternEdge& Pattern::EdgeById(int id) const {
  for (const auto& e : edges_) {
    if (e.id == id) return e;
  }
  throw std::runtime_error("Pattern: no edge with id " + std::to_string(id));
}

PatternEdge& Pattern::EdgeById(int id) {
  for (auto& e : edges_) {
    if (e.id == id) return e;
  }
  throw std::runtime_error("Pattern: no edge with id " + std::to_string(id));
}

bool Pattern::HasVertex(int id) const {
  for (const auto& v : vertices_) {
    if (v.id == id) return true;
  }
  return false;
}

const PatternVertex* Pattern::FindVertexByAlias(const std::string& alias) const {
  if (alias.empty()) return nullptr;
  for (const auto& v : vertices_) {
    if (v.alias == alias) return &v;
  }
  return nullptr;
}

const PatternEdge* Pattern::FindEdgeByAlias(const std::string& alias) const {
  if (alias.empty()) return nullptr;
  for (const auto& e : edges_) {
    if (e.alias == alias) return &e;
  }
  return nullptr;
}

std::vector<int> Pattern::IncidentEdges(int v) const {
  std::vector<int> r;
  for (const auto& e : edges_) {
    if (e.src == v || e.dst == v) r.push_back(e.id);
  }
  return r;
}

std::vector<int> Pattern::NeighborVertices(int v) const {
  std::set<int> r;
  for (const auto& e : edges_) {
    if (e.src == v) r.insert(e.dst);
    if (e.dst == v) r.insert(e.src);
  }
  r.erase(v);
  return {r.begin(), r.end()};
}

bool Pattern::IsConnected() const {
  if (vertices_.empty()) return true;
  std::set<int> visited;
  std::vector<int> stack = {vertices_[0].id};
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    if (!visited.insert(v).second) continue;
    for (const auto& e : edges_) {
      if (e.src == v) stack.push_back(e.dst);
      if (e.dst == v) stack.push_back(e.src);
    }
  }
  return visited.size() == vertices_.size();
}

bool Pattern::IsConnectedWithout(int v) const {
  if (vertices_.size() <= 1) return false;  // removing the only vertex
  return WithoutVertex(v).IsConnected();
}

Pattern Pattern::SubpatternByEdges(const std::vector<int>& edge_ids) const {
  Pattern p;
  std::vector<int> want(edge_ids);
  std::sort(want.begin(), want.end());
  std::vector<int> vids;
  p.edges_.reserve(want.size());
  for (const auto& e : edges_) {
    if (std::binary_search(want.begin(), want.end(), e.id)) {
      vids.push_back(e.src);
      vids.push_back(e.dst);
      p.edges_.push_back(e);
    }
  }
  std::sort(vids.begin(), vids.end());
  vids.erase(std::unique(vids.begin(), vids.end()), vids.end());
  p.vertices_.reserve(vids.size());
  for (const auto& v : vertices_) {
    if (std::binary_search(vids.begin(), vids.end(), v.id)) {
      p.vertices_.push_back(v);
    }
  }
  p.next_vertex_id_ = next_vertex_id_;
  p.next_edge_id_ = next_edge_id_;
  return p;
}

Pattern Pattern::WithoutVertex(int v) const {
  Pattern p;
  p.vertices_.reserve(vertices_.size());
  p.edges_.reserve(edges_.size());
  for (const auto& pv : vertices_) {
    if (pv.id != v) p.vertices_.push_back(pv);
  }
  for (const auto& e : edges_) {
    if (e.src != v && e.dst != v) p.edges_.push_back(e);
  }
  p.next_vertex_id_ = next_vertex_id_;
  p.next_edge_id_ = next_edge_id_;
  return p;
}

Pattern Pattern::SingleVertex(int v) const {
  Pattern p;
  p.vertices_.push_back(VertexById(v));
  p.next_vertex_id_ = next_vertex_id_;
  p.next_edge_id_ = next_edge_id_;
  return p;
}

std::vector<int> Pattern::CommonVertices(const Pattern& other) const {
  std::vector<int> r;
  for (const auto& v : vertices_) {
    if (other.HasVertex(v.id)) r.push_back(v.id);
  }
  return r;
}

std::vector<std::string> Pattern::Aliases() const {
  std::vector<std::string> r;
  for (const auto& v : vertices_) {
    if (!v.alias.empty()) r.push_back(v.alias);
  }
  for (const auto& e : edges_) {
    if (!e.alias.empty()) r.push_back(e.alias);
  }
  return r;
}

bool Pattern::AllBasicTypes() const {
  for (const auto& v : vertices_) {
    if (!v.tc.IsBasic()) return false;
  }
  for (const auto& e : edges_) {
    if (!e.tc.IsBasic()) return false;
  }
  return true;
}

bool Pattern::HasPathEdge() const {
  return std::any_of(edges_.begin(), edges_.end(),
                     [](const PatternEdge& e) { return e.IsPath(); });
}

std::string Pattern::ToString(const GraphSchema& schema) const {
  std::string s = "Pattern{";
  for (size_t i = 0; i < vertices_.size(); ++i) {
    const auto& v = vertices_[i];
    if (i) s += ", ";
    s += "(" + std::to_string(v.id);
    if (!v.alias.empty()) s += ":" + v.alias;
    s += " " + v.tc.ToString(schema, true) + ")";
  }
  s += "; ";
  for (size_t i = 0; i < edges_.size(); ++i) {
    const auto& e = edges_[i];
    if (i) s += ", ";
    s += std::to_string(e.src);
    s += (e.dir == Direction::kIn) ? "<-" : "-";
    s += "[" + e.tc.ToString(schema, false);
    if (e.IsPath()) {
      s += "*" + std::to_string(e.min_hops) + ".." + std::to_string(e.max_hops);
    }
    s += "]";
    s += (e.dir == Direction::kOut) ? "->" : "-";
    s += std::to_string(e.dst);
  }
  return s + "}";
}

}  // namespace gopt
