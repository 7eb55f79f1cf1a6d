#include "topology.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <sstream>

#include "support/logging.hpp"

namespace qc {

Topology::Topology(TopologyKind kind, int num_qubits,
                   std::vector<CouplingEdge> edges, std::string name,
                   int rows, int cols)
    : kind_(kind),
      numQubits_(num_qubits),
      rows_(rows),
      cols_(cols),
      name_(std::move(name)),
      edges_(std::move(edges))
{
    if (numQubits_ <= 0)
        QC_FATAL("topology '", name_, "' must have at least one qubit");
    validateAndIndex();
    buildDistanceTable();
}

void
Topology::validateAndIndex()
{
    const int n = numQubits_;
    neighbors_.assign(n, {});
    edgeLookup_.assign(n, std::vector<EdgeId>(n, kInvalidEdge));

    for (size_t i = 0; i < edges_.size(); ++i) {
        CouplingEdge &e = edges_[i];
        if (e.a < 0 || e.a >= n || e.b < 0 || e.b >= n)
            QC_FATAL("topology '", name_, "': edge (", e.a, ",", e.b,
                     ") endpoint out of range [0,", n, ")");
        if (e.a == e.b)
            QC_FATAL("topology '", name_, "': self-loop on qubit ",
                     e.a);
        if (e.a > e.b)
            std::swap(e.a, e.b);
        if (edgeLookup_[e.a][e.b] != kInvalidEdge)
            QC_FATAL("topology '", name_, "': duplicate edge (", e.a,
                     ",", e.b, ")");
        EdgeId id = static_cast<EdgeId>(i);
        edgeLookup_[e.a][e.b] = edgeLookup_[e.b][e.a] = id;
        neighbors_[e.a].push_back(e.b);
        neighbors_[e.b].push_back(e.a);
    }
    for (auto &ns : neighbors_)
        std::sort(ns.begin(), ns.end());

    // Every layer downstream (routing, placement, calibration drift)
    // assumes any qubit can reach any other, so a disconnected graph
    // is a configuration error, not something to limp along with.
    std::vector<char> seen(n, 0);
    std::deque<HwQubit> frontier{0};
    seen[0] = 1;
    int reached = 1;
    while (!frontier.empty()) {
        HwQubit u = frontier.front();
        frontier.pop_front();
        for (HwQubit v : neighbors_[u]) {
            if (!seen[v]) {
                seen[v] = 1;
                ++reached;
                frontier.push_back(v);
            }
        }
    }
    if (reached != n)
        QC_FATAL("topology '", name_, "' is disconnected: only ",
                 reached, " of ", n, " qubits reachable from qubit 0");
}

void
Topology::buildDistanceTable()
{
    const int n = numQubits_;
    dist_.assign(static_cast<size_t>(n) * n, -1);
    std::deque<HwQubit> frontier;
    for (HwQubit src = 0; src < n; ++src) {
        int *row = dist_.data() + static_cast<size_t>(src) * n;
        row[src] = 0;
        frontier.clear();
        frontier.push_back(src);
        while (!frontier.empty()) {
            HwQubit u = frontier.front();
            frontier.pop_front();
            for (HwQubit v : neighbors_[u]) {
                if (row[v] < 0) {
                    row[v] = row[u] + 1;
                    frontier.push_back(v);
                }
            }
        }
    }
}

const std::vector<HwQubit> &
Topology::neighbors(HwQubit h) const
{
    QC_ASSERT(h >= 0 && h < numQubits_, "qubit ", h, " out of range");
    return neighbors_[h];
}

int
Topology::rows() const
{
    if (!isGrid())
        QC_FATAL("rows() on non-grid topology '", name_, "'");
    return rows_;
}

int
Topology::cols() const
{
    if (!isGrid())
        QC_FATAL("cols() on non-grid topology '", name_, "'");
    return cols_;
}

HwQubit
Topology::qubitAt(int x, int y) const
{
    if (!isGrid())
        QC_FATAL("qubitAt() on non-grid topology '", name_, "'");
    QC_ASSERT(x >= 0 && x < rows_ && y >= 0 && y < cols_,
              "grid position (", x, ",", y, ") out of range");
    return x * cols_ + y;
}

GridPos
Topology::posOf(HwQubit h) const
{
    if (!isGrid())
        QC_FATAL("posOf() on non-grid topology '", name_, "'");
    QC_ASSERT(h >= 0 && h < numQubits_, "qubit ", h, " out of range");
    return {h / cols_, h % cols_};
}

namespace {

std::vector<CouplingEdge>
gridEdges(int rows, int cols)
{
    if (rows <= 0 || cols <= 0)
        QC_FATAL("grid dimensions must be positive, got ", rows, "x",
                 cols);
    // Generation order is load-bearing: EdgeIds index calibration
    // vectors, and the synthetic calibration stream draws per-edge
    // values in id order, so this must stay exactly the historical
    // row-major right-then-down walk.
    std::vector<CouplingEdge> edges;
    for (int x = 0; x < rows; ++x) {
        for (int y = 0; y < cols; ++y) {
            HwQubit h = x * cols + y;
            if (y + 1 < cols)
                edges.push_back({h, h + 1});
            if (x + 1 < rows)
                edges.push_back({h, h + cols});
        }
    }
    return edges;
}

std::string
gridName(int rows, int cols)
{
    std::ostringstream oss;
    oss << "grid" << rows << "x" << cols;
    return oss.str();
}

} // namespace

GridTopology::GridTopology(int rows, int cols)
    : Topology(TopologyKind::Grid, rows > 0 && cols > 0 ? rows * cols : 0,
               gridEdges(rows, cols), gridName(rows, cols), rows, cols)
{
}

GridTopology
GridTopology::ibmq16()
{
    return GridTopology(2, 8);
}

namespace {

struct HeavyHexGraph
{
    int numQubits = 0;
    std::vector<CouplingEdge> edges;
};

HeavyHexGraph
heavyHexGraph(int d)
{
    if (d < 2)
        QC_FATAL("heavy-hex distance must be >= 2, got ", d);
    HeavyHexGraph g;
    auto data = [&](int i, int j) { return i * d + j; };
    const int flag_base = d * d;
    auto flag = [&](int i, int k) {
        return flag_base + i * (d - 1) + k;
    };
    int next = flag_base + d * (d - 1);

    // Row chains: data(i,k) - flag(i,k) - data(i,k+1).
    for (int i = 0; i < d; ++i) {
        for (int k = 0; k + 1 < d; ++k) {
            g.edges.push_back({data(i, k), flag(i, k)});
            g.edges.push_back({flag(i, k), data(i, k + 1)});
        }
    }
    // Bridges between adjacent rows at parity-staggered columns, so
    // each data qubit carries at most one vertical link (degree <= 3).
    for (int i = 0; i + 1 < d; ++i) {
        for (int c = i % 2; c < d; c += 2) {
            int bridge = next++;
            g.edges.push_back({data(i, c), bridge});
            g.edges.push_back({bridge, data(i + 1, c)});
        }
    }
    g.numQubits = next;
    return g;
}

/** Closed form of heavyHexGraph's qubit count (d^2 data + d(d-1)
 *  flags + ceil/floor-alternating bridges over d-1 row gaps). */
int
heavyHexQubits(int d)
{
    if (d < 2)
        QC_FATAL("heavy-hex distance must be >= 2, got ", d);
    int bridges = 0;
    for (int i = 0; i + 1 < d; ++i)
        bridges += (d - (i % 2) + 1) / 2;
    return d * d + d * (d - 1) + bridges;
}

} // namespace

HeavyHexTopology::HeavyHexTopology(int distance)
    : Topology(TopologyKind::HeavyHex, heavyHexQubits(distance),
               heavyHexGraph(distance).edges,
               "heavyhex" + std::to_string(distance))
{
}

RingTopology::RingTopology(int num_qubits)
    : Topology(
          TopologyKind::Ring, num_qubits,
          [&] {
              if (num_qubits < 3)
                  QC_FATAL("ring topology needs >= 3 qubits, got ",
                           num_qubits);
              std::vector<CouplingEdge> edges;
              for (int i = 0; i + 1 < num_qubits; ++i)
                  edges.push_back({i, i + 1});
              edges.push_back({0, num_qubits - 1});
              return edges;
          }(),
          "ring" + std::to_string(num_qubits))
{
}

LinearTopology::LinearTopology(int num_qubits)
    : Topology(
          TopologyKind::Linear, num_qubits,
          [&] {
              if (num_qubits < 2)
                  QC_FATAL("linear topology needs >= 2 qubits, got ",
                           num_qubits);
              std::vector<CouplingEdge> edges;
              for (int i = 0; i + 1 < num_qubits; ++i)
                  edges.push_back({i, i + 1});
              return edges;
          }(),
          "linear" + std::to_string(num_qubits))
{
}

GraphTopology::GraphTopology(int num_qubits,
                             std::vector<CouplingEdge> edges,
                             std::string name)
    : Topology(TopologyKind::Graph, num_qubits, std::move(edges),
               std::move(name))
{
}

GraphTopology
GraphTopology::fromEdgeList(const std::string &text,
                            const std::string &name)
{
    std::vector<CouplingEdge> edges;
    int declared_qubits = -1;
    int max_id = -1;

    std::istringstream stream(text);
    std::string raw;
    int number = 0;
    while (std::getline(stream, raw)) {
        ++number;
        if (auto hash = raw.find('#'); hash != std::string::npos)
            raw.erase(hash);
        std::istringstream ls(raw);
        std::string first;
        if (!(ls >> first))
            continue;
        if (first == "qubits") {
            if (!(ls >> declared_qubits) || declared_qubits <= 0)
                QC_FATAL("edge list '", name, "' line ", number,
                         ": 'qubits' needs a positive count");
            continue;
        }
        int a = 0, b = 0;
        try {
            size_t used = 0;
            a = std::stoi(first, &used);
            if (used != first.size())
                throw std::invalid_argument("trailing junk");
        } catch (const std::exception &) {
            QC_FATAL("edge list '", name, "' line ", number,
                     ": bad qubit id '", first, "'");
        }
        if (!(ls >> b))
            QC_FATAL("edge list '", name, "' line ", number,
                     ": expected 'a b' qubit pair");
        std::string extra;
        if (ls >> extra)
            QC_FATAL("edge list '", name, "' line ", number,
                     ": trailing token '", extra, "'");
        if (a < 0 || b < 0)
            QC_FATAL("edge list '", name, "' line ", number,
                     ": negative qubit id");
        edges.push_back({a, b});
        max_id = std::max(max_id, std::max(a, b));
    }
    if (edges.empty())
        QC_FATAL("edge list '", name, "' contains no edges");

    int n = declared_qubits > 0 ? declared_qubits : max_id + 1;
    if (max_id >= n)
        QC_FATAL("edge list '", name, "' uses qubit ", max_id,
                 " but declares only ", n, " qubits");
    return GraphTopology(n, std::move(edges), name);
}

GraphTopology
GraphTopology::fromEdgeListFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        QC_FATAL("cannot open topology edge-list file '", path, "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    std::string name = path;
    if (auto slash = name.find_last_of('/'); slash != std::string::npos)
        name = name.substr(slash + 1);
    return fromEdgeList(oss.str(), name);
}

namespace {

int
parsePositiveInt(const std::string &text, const std::string &spec)
{
    try {
        size_t used = 0;
        int v = std::stoi(text, &used);
        if (used != text.size() || v <= 0)
            throw std::invalid_argument("trailing junk");
        return v;
    } catch (const std::exception &) {
        QC_FATAL("bad topology spec '", spec, "': '", text,
                 "' is not a positive integer\n",
                 topologySpecHelp());
    }
}

} // namespace

Topology
topologyFromSpec(const std::string &spec)
{
    auto colon = spec.find(':');
    if (colon == std::string::npos)
        QC_FATAL("bad topology spec '", spec, "' (missing ':')\n",
                 topologySpecHelp());
    const std::string family = spec.substr(0, colon);
    const std::string arg = spec.substr(colon + 1);

    if (family == "grid") {
        auto x = arg.find_first_of("xX");
        if (x == std::string::npos)
            QC_FATAL("bad topology spec '", spec,
                     "': grid wants RxC, e.g. grid:2x8\n",
                     topologySpecHelp());
        int rows = parsePositiveInt(arg.substr(0, x), spec);
        int cols = parsePositiveInt(arg.substr(x + 1), spec);
        return GridTopology(rows, cols);
    }
    if (family == "heavyhex")
        return HeavyHexTopology(parsePositiveInt(arg, spec));
    if (family == "ring")
        return RingTopology(parsePositiveInt(arg, spec));
    if (family == "linear")
        return LinearTopology(parsePositiveInt(arg, spec));
    if (family == "file")
        return GraphTopology::fromEdgeListFile(arg);

    QC_FATAL("unknown topology family '", family, "' in spec '", spec,
             "'\n", topologySpecHelp());
}

std::string
topologySpecHelp()
{
    return "topology specs:\n"
           "  grid:RxC     R x C rectangular grid (grid:2x8 is the "
           "paper's IBMQ16)\n"
           "  heavyhex:D   heavy-hex lattice of distance D (>= 2; "
           "18 qubits at D=3)\n"
           "  ring:N       N-qubit cycle (N >= 3)\n"
           "  linear:N     N-qubit path (N >= 2)\n"
           "  file:PATH    edge list: one 'a b' pair per line, '#' "
           "comments,\n"
           "               optional 'qubits N' line";
}

} // namespace qc
