"""Treasure hunt and rendezvous simulation on anonymous port-numbered graphs."""

from .errors import (
    BadParams,
    CapExceeded,
    Disconnected,
    InvalidPorts,
    NegativeWait,
    NoSuchPort,
    NotEnumerated,
    ParseError,
    PortHuntError,
    PreconditionError,
    RoundBudgetExceeded,
    StepBudgetExceeded,
    UnknownFamily,
    UnknownNode,
)
from .hunt_engine import HuntConfig, HuntResult, Navigator, run_uth, traverse
from .path_algebra import (
    EnumMode,
    compare_star,
    global_paths,
    index_of_path,
    paths_of_type,
    phase_types,
    type_of,
    value,
)
from .port_graph import (
    Degree,
    FiniteGraph,
    PortGraph,
    build_finite,
    builtin,
    from_text,
    parse_graph_text,
    tree_node,
    validate,
)
from .rendezvous_engine import (
    RvConfig,
    RvResult,
    alloc,
    bound_time,
    run_urv,
    trans,
)
from .weight_oracle import (
    WeightResult,
    big_weight,
    bp_lex_shortest_path,
    character_weight,
    critical_path,
)

__version__ = "0.1.0"
