"""invqm: exact dimensions of spaces of non-extendable invariant
quasimorphisms for pairs (G, N), plus the supporting word calculus, exact
linear algebra, transgression cocycles, and counting-quasimorphism tools."""

from .brooks import (CountingQM, DefectCertificate, bavard_lower_bound,
                     defect_lower_bound, homogenize_eval, qm_eval)
from .engine import (DimensionReport, analyze_free_by_cyclic,
                     analyze_mapping_torus, analyze_presentation, preset)
from .invhoms import constraint_space, evaluate_on_quotient, inv_hom_dim
from .magnus import (InvariantHom, WedgeVec, abelianize, doubled_class,
                     hom_eval, wedge_class)
from .quotients import (AbelianQuotient, SemidirectQuotient, abelian_quotient,
                        free_quotient, h2_dim, h2_dim_semidirect,
                        h2_dim_total_space, surface_quotient)
from .transgression import (Transgressor, antisym_pairing, cup_class_matrix,
                            lift_F, standard_section, transgress)
from .words import (FreeWord, Presentation, commutator, conjugate, generator,
                    parse_presentation, parse_word, power, render)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
