"""atomcat: atom spectra of Grothendieck categories built from colored quivers.

The package computes, at desk scale, the atom-theoretic invariants of
the module categories generated by colored quivers over prime fields:
submodule lattices by exhaustive GF(p) enumeration, monoform
classification, atom supports, the discrete spectra of finite quivers,
and symbolic predictions for the infinite constructions (poset
realizations and the atom-free category), each crosschecked against
brute force on finite truncations.
"""

from .atomspec import (Atom, AtomSet, SpectrumReport, aass, asupp,
                       is_monoform, is_uniform, spectrum)
from .generators import (gen_noatom, gen_realization_acc,
                         gen_realization_general, preset, substitute)
from .linmod import (FdModule, FieldSpec, Submodule, hom_basis, is_essential,
                     module_of_quiver, structure_report, submodule_lattice,
                     subquotient)
from .ordertop import (FiniteTopology, Poset, alexandroff_of_poset,
                       is_kolmogorov, j_sets, normalize_poset,
                       poset_of_topology, topology_of_opens)
from .predictor import (DiffReport, SymbolicSpectrum, crosscheck,
                        predict_noatom, predict_preset, predict_realization)
from .quiver import (ColoredQuiver, GeneratedQuiver, TruncationSpec,
                     full_subquiver, make_quiver, split_by_closed)
from .terms import PRESET_NAMES

__version__ = "0.1.0"
