"""atomcat: atom spectra of Grothendieck categories built from colored quivers.

The package computes, at desk scale, the atom-theoretic invariants of
the module categories generated by colored quivers over prime fields:
submodule lattices by exhaustive GF(p) enumeration, monoform
classification, atom supports, spectra with their topology and
specialization order, and symbolic predictions for the infinite
constructions (poset realizations and the atom-free category), each
crosschecked against brute force on finite truncations.
"""

from .atomspec import (Atom, AtomSet, SpectrumReport, aass, asupp,
                       atom_equivalent, has_common_nonzero_subobject,
                       is_monoform, is_uniform, localize,
                       localizing_subcategories, membership, spectrum)
from .generators import (gen_noatom, gen_realization_acc,
                         gen_realization_general, preset, PRESET_NAMES)
from .linmod import (FdModule, FieldSpec, Submodule, SubmoduleSet,
                     cyclic_submodule, hom_basis, is_essential,
                     module_of_quiver, structure_report, submodule_lattice,
                     subquotient)
from .ordertop import (FiniteTopology, Poset, alexandroff_of_poset,
                       is_kolmogorov, normalize_poset, poset_invariants,
                       poset_isomorphic, poset_of_topology)
from .predictor import (DiffReport, SymbolicSpectrum, crosscheck,
                        predict_chain, predict_disjoint_union, predict_noatom,
                        predict_preset, predict_realization)
from .quiver import (Arrow, ColoredQuiver, GeneratedQuiver, TruncationSpec,
                     chain, disjoint_union, full_subquiver, ladder,
                     make_quiver, normalize, quiver_of_algebra,
                     split_by_closed, substitute)

__version__ = "0.1.0"
