/**
 * @file
 * Hardware coupling topologies.
 *
 * The paper (Sec. 4.1) models hardware as an Mx x My grid and
 * evaluates on the 2x8 IBMQ16 Rueschlikon. Real devices are not
 * always grids — IBM's current lattices are heavy-hex, trapped-ion
 * prototypes are rings/lines, and experimental devices ship arbitrary
 * coupling graphs — so the topology layer is an abstraction:
 *
 *  - `Topology` is the concrete coupling-graph interface every layer
 *    compiles against: qubit count, neighbors, edges with stable ids,
 *    and hop distance (an all-pairs BFS table built at construction).
 *  - `GridTopology` is the paper's grid as one implementation, joined
 *    by `HeavyHexTopology`, `RingTopology`, `LinearTopology`, and a
 *    `GraphTopology` loaded from an edge list.
 *
 * The subclasses add no state — they are constructors for specific
 * graph families — so a `Topology` holds any of them by value and
 * `Machine` snapshots stay self-contained and thread-shareable.
 */

#ifndef QC_MACHINE_TOPOLOGY_HPP
#define QC_MACHINE_TOPOLOGY_HPP

#include <string>
#include <vector>

#include "support/logging.hpp"
#include "support/types.hpp"

namespace qc {

/** Grid coordinate of a hardware qubit (row x, column y). */
struct GridPos
{
    int x = 0;
    int y = 0;
};

inline bool operator==(const GridPos &a, const GridPos &b)
{
    return a.x == b.x && a.y == b.y;
}

/** An undirected coupling edge between two adjacent hardware qubits. */
struct CouplingEdge
{
    HwQubit a;
    HwQubit b;
};

/** The topology families the factory knows how to build. */
enum class TopologyKind {
    Grid,     ///< rectangular grid, 4-neighborhood (the paper's model)
    HeavyHex, ///< heavy-hex lattice (IBM Falcon/Hummingbird style)
    Ring,     ///< single cycle
    Linear,   ///< single path
    Graph,    ///< arbitrary coupling graph (edge-list loaded)
};

/**
 * A connected, undirected coupling graph over qubits [0, numQubits).
 *
 * Edges each carry a stable `EdgeId` (calibration vectors are indexed
 * by it), listed once with a < b. `distance` is the hop distance,
 * read from an all-pairs BFS table built at construction, so lookups
 * during mapping are one load on every kind (on grids the table
 * equals the paper's L1 distance).
 *
 * Construction validates the graph (ids in range, no self-loops or
 * duplicate edges, connected) and fails fast with FatalError
 * otherwise — downstream layers assume every qubit is routable.
 */
class Topology
{
  public:
    TopologyKind kind() const { return kind_; }
    bool isGrid() const { return kind_ == TopologyKind::Grid; }

    int numQubits() const { return numQubits_; }
    int numEdges() const { return static_cast<int>(edges_.size()); }

    /** Hop distance between two qubits (== L1 distance on grids). */
    int distance(HwQubit a, HwQubit b) const
    {
        QC_ASSERT(a >= 0 && a < numQubits_ && b >= 0 && b < numQubits_,
                  "distance endpoints out of range");
        return dist_[static_cast<size_t>(a) * numQubits_ + b];
    }

    /** True if a and b are coupled. */
    bool adjacent(HwQubit a, HwQubit b) const
    {
        return edgeBetween(a, b) != kInvalidEdge;
    }

    /** Neighbors of h in increasing id order. */
    const std::vector<HwQubit> &neighbors(HwQubit h) const;

    /** All edges, each listed once with a < b. */
    const std::vector<CouplingEdge> &edges() const { return edges_; }

    /** Edge id joining a and b, or kInvalidEdge. */
    EdgeId edgeBetween(HwQubit a, HwQubit b) const
    {
        QC_ASSERT(a >= 0 && a < numQubits_ && b >= 0 && b < numQubits_,
                  "edge endpoints out of range");
        return edgeLookup_[a][b];
    }

    const CouplingEdge &edge(EdgeId e) const { return edges_[e]; }

    /** Short description, e.g. "grid2x8", "heavyhex3", "ring8". */
    const std::string &name() const { return name_; }

    /** @name Grid specialization (QC_FATAL on non-grid topologies)
     *  The paper's geometric fast paths — row-major ids, coordinate
     *  lookups — only exist on grids; callers branch on isGrid().
     *  @{ */

    int rows() const;
    int cols() const;

    /** Row-major qubit id at (x, y). */
    HwQubit qubitAt(int x, int y) const;

    /** Grid coordinate of a qubit id. */
    GridPos posOf(HwQubit h) const;

    /** @} */

  protected:
    /**
     * @param rows,cols grid extents; pass -1 for non-grid kinds.
     * Edge order is preserved as given (EdgeIds are load-bearing:
     * calibration vectors index by them).
     */
    Topology(TopologyKind kind, int num_qubits,
             std::vector<CouplingEdge> edges, std::string name,
             int rows = -1, int cols = -1);

  private:
    void validateAndIndex();
    void buildDistanceTable();

    TopologyKind kind_;
    int numQubits_;
    int rows_;
    int cols_;
    std::string name_;
    std::vector<CouplingEdge> edges_;
    std::vector<std::vector<HwQubit>> neighbors_;
    std::vector<std::vector<EdgeId>> edgeLookup_;
    std::vector<int> dist_; ///< all-pairs BFS, row-major
};

/**
 * Rectangular grid topology (the paper's machine model).
 *
 * Qubit ids are row-major: qubit(x, y) = x * cols + y. Adjacency is
 * 4-neighborhood (Manhattan); the L1 grid distance equals the hop
 * distance, as the paper's duration formula assumes.
 */
class GridTopology : public Topology
{
  public:
    /** @param rows Mx, @param cols My */
    GridTopology(int rows, int cols);

    /** The paper's evaluation machine: a 2x8 grid (16 qubits). */
    static GridTopology ibmq16();
};

/**
 * Heavy-hex lattice of code distance d (>= 2): a d x d array of data
 * qubits whose rows are chained through flag qubits, with adjacent
 * rows joined through bridge qubits at parity-staggered columns —
 * max degree 3, the signature of IBM's heavy-hex devices.
 *
 * Qubit count: d^2 data + d*(d-1) flags + floor/ceil-staggered
 * bridges over the d-1 row gaps (18 qubits at d=3, 55 at d=5).
 */
class HeavyHexTopology : public Topology
{
  public:
    explicit HeavyHexTopology(int distance);
};

/** Single cycle 0-1-...-(n-1)-0 (n >= 3). */
class RingTopology : public Topology
{
  public:
    explicit RingTopology(int num_qubits);
};

/** Single path 0-1-...-(n-1) (n >= 2). */
class LinearTopology : public Topology
{
  public:
    explicit LinearTopology(int num_qubits);
};

/**
 * Arbitrary coupling graph ("bring your own device").
 *
 * The edge-list text format is one `a b` pair per line (whitespace
 * separated, '#' comments), with an optional `qubits N` directive for
 * devices whose highest qubit id is not on any edge... which would be
 * disconnected anyway, so in practice N is inferred as max id + 1.
 */
class GraphTopology : public Topology
{
  public:
    GraphTopology(int num_qubits, std::vector<CouplingEdge> edges,
                  std::string name = "graph");

    /** Parse the edge-list format above. */
    static GraphTopology fromEdgeList(const std::string &text,
                                      const std::string &name = "graph");

    /** Load an edge-list file (FatalError on unreadable paths). */
    static GraphTopology fromEdgeListFile(const std::string &path);
};

/**
 * Build a topology from a CLI-style spec:
 *
 *   grid:RxC | heavyhex:D | ring:N | linear:N | file:PATH
 *
 * Throws FatalError on malformed specs, naming the valid forms.
 */
Topology topologyFromSpec(const std::string &spec);

/** One-line-per-family description of the spec grammar (--help text). */
std::string topologySpecHelp();

} // namespace qc

#endif // QC_MACHINE_TOPOLOGY_HPP
