"""qramforge: tree-routed quantum memory access circuits.

Construct the Down/Run/Up access circuit for an arbitrary per-address
payload, measure its exact resource usage, simulate it sparsely, and verify
it against reference semantics computed straight from the payload matrices.

The package splits along those lines: :mod:`~qramforge.tree` owns labels and
register allocation, :mod:`~qramforge.ir` the moment-structured circuits,
:mod:`~qramforge.synth` the three phases, :mod:`~qramforge.sim` the sparse
simulator, :mod:`~qramforge.verifier` instance families and checkers, and
:mod:`~qramforge.formats`/:mod:`~qramforge.cli` the serialization surface.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigurationError,
    InvalidParameterError,
    QramForgeError,
    ResourceLimitError,
    SchemaError,
    ShapeError,
    SimulationError,
    StructuralError,
)
from .formats import (
    FORMAT_VERSION,
    CircuitDocument,
    emit_json,
    emit_qasm,
    parse_document,
    parse_state,
    serialize_state,
)
from .ir import Circuit, Gate, GateKind, concat
from .sim import (
    SparseState,
    UnitarySpec,
    apply_gate,
    basis_state,
    run_batch,
    run_circuit,
    superpose,
)
from .synth import (
    SynthesisOptions,
    synth_access,
    synth_down,
    synth_run,
    synth_up,
)
from .tree import (
    MAX_ADDRESS_WIDTH,
    RegisterMap,
    allocate_registers,
    ancilla_counts,
    label_of,
)
from .verifier import (
    INSTANCE_FAMILIES,
    CaseResult,
    InstanceSpec,
    VerificationReport,
    build_custom_instance,
    build_instance,
    build_qram_instance,
    build_random_instance,
    build_rotation_instance,
    build_table_lookup_instance,
    check_linearity,
    check_proposition,
    check_variant_agreement,
    extract_data_state,
    oracle_effect,
    oracle_superposition,
)

__version__ = "0.1.0"

# every name imported above that is neither private nor a submodule
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
