"""Tree-path product graphs, small-instance layout solvers, and the
thinning passes and grid-boundary analyses built on them."""

from .errors import (
    BoxslashError,
    InconsistencyError,
    PassStarvation,
    ShapeError,
    SizeLimitError,
)
from .product import (
    EdgeKind,
    NodeIndex,
    ProductGraph,
    PVertex,
    ROOT,
    Tree,
    TreeSpec,
    boxslash_product,
    build_tree,
)
from .layout import (
    EdgeColoring,
    LinearOrder,
    PairRelation,
    canonical_order,
    layout_from_json,
    layout_to_json,
    queues_for_order,
    stack_pages_for_order,
    three_queue_layout,
    validate_queue_layout,
    validate_stack_layout,
)
from .solver import (
    SolveResult,
    queue_number,
    stack_number,
)
from .sequences import Direction
from .passes import (
    CheckReport,
    ColorTable,
    DirectionTable,
    LexMonotoneWitness,
    PassState,
    PipelineResult,
    check_child_symmetry,
    check_direction_consistency,
    pass_colour,
    pass_lex,
    pass_order,
    run_passes,
)
from .hexgrid import (
    BoundaryLine,
    HexColoring,
    HexGrid,
    LongBoundaryWitness,
    SpanningPath,
    TopBoundaries,
    TopBoundary,
    TopCellsWitness,
    cut_points,
    direction_layer,
    maximal_boundaries,
    monochromatic_spanning_path,
    required_grid_size,
    top_or_long,
    trace_boundary,
)

__version__ = "0.1.0"
