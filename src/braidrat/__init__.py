"""Weight-graded mod-2 homology coalgebras of braid spaces, rational
self-maps of the sphere and labelled configuration spaces."""

from .ambient import (
    AmbientElement,
    AmbientMonomial,
    Bigrade,
    GeneratorLimitError,
    TensorElement,
    element,
    monomial,
    q_gen,
    tensor,
    tensor_components,
)
from .coalgebra import (
    BraidConfReport,
    GradedCoalgebra,
    IsoVerdict,
    LemmaBraidReport,
    SpanError,
    TheoremReport,
    check_braid_conf,
    check_lemma_braid,
    coalgebras_isomorphic,
    components_isomorphic,
    extract_coalgebra,
    s_set,
    steenrod_matrix,
    theorem_main,
    verify_coalgebra_map,
)
from .families import (
    Family,
    FamilyMonomial,
    basis,
    basis_size,
    check_basis_size,
    embed,
    family_monomial,
    generator_coproduct,
    generator_steenrod,
    poincare_vector,
    top_class,
)
from .operations import (
    araki_kudo_q,
    coproduct,
    iterated_q,
    sq1_dual,
    sqj_dual,
)

__version__ = "0.1.0"
