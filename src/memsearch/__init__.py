"""Memory-augmented inference for multi-trajectory tool-use agents.

The package factors agent memory along two axes, scope (cross-sibling vs
cross-trajectory) and abstraction (raw records, reflections, extracted
facts), and runs the resulting augmentors under three inference methods
(best-of-N, single-round beam, MCTS) over deterministic toy environments,
with exact paired statistics on top.
"""

from .augmentors import (
    AugmentorConfig,
    AugmentorKind,
    CompositeAugmentor,
    FactMode,
    MemoryStore,
    compose,
    extract_facts,
    maybe_reflect,
    retrieve,
    sibling_context,
)
from .core import (
    Action,
    ContextBundle,
    ContextUnit,
    GiveUpStats,
    Node,
    Observation,
    PricingTable,
    Scope,
    Abstraction,
    SearchRecord,
    StateHandle,
    Step,
    Task,
    Telemetry,
    TerminalKind,
    Trajectory,
    render_bundle,
)
from .envs import Benchmark, Grader, ScriptedShellEnv, ToyKgEnv, ToySqlEnv, load_benchmark
from .matrix import (
    AdmissibilityReason,
    ExperimentCell,
    check_admissible,
    load_matrix_config,
    run_matrix,
)
from .models import (
    HashEmbedder,
    RemoteChatClient,
    RemoteChatConfig,
    ScriptedAugmentorModel,
    ScriptedPolicy,
    ScriptedPolicyConfig,
    ScriptedRewardModel,
    hash_embed,
    load_policy,
)
from .search import (
    BackpropMode,
    ExpansionMode,
    SearchConfig,
    SearchMethod,
    backprop,
    expand,
    run_beam,
    run_best_of_n,
    run_mcts,
    run_search,
)
from .stats import (
    BhResult,
    CellEntry,
    EfficiencySummary,
    PairedCounts,
    VerdictRow,
    analyze_run,
    bh_fdr,
    efficiency,
    emit_matrix_report,
    mcnemar_exact,
    pair_verdicts,
    significance_marker,
)

__version__ = "0.1.0"
