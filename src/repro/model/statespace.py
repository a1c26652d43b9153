"""Character state spaces: nucleotide (4), amino acid (20), and codon (61).

The likelihood kernels are generic over the state count *s* (the paper's
complexity term ``O(p * s^2 * n)``); this module owns the mapping between
sequence characters and state indices, including IUPAC ambiguity codes,
which BEAGLE represents either as integer state codes (``setTipStates``)
or as 0/1 indicator partials (``setTipPartials``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

# IUPAC nucleotide ambiguity codes -> set of compatible bases.
_IUPAC_NUC: Dict[str, str] = {
    "A": "A", "C": "C", "G": "G", "T": "T", "U": "T",
    "R": "AG", "Y": "CT", "S": "CG", "W": "AT", "K": "GT", "M": "AC",
    "B": "CGT", "D": "AGT", "H": "ACT", "V": "ACG",
    "N": "ACGT", "-": "ACGT", "?": "ACGT", "X": "ACGT",
}

_AA_ORDER = "ARNDCQEGHILKMFPSTWYV"

# The standard genetic code: codon -> single-letter amino acid ('*' = stop).
STANDARD_GENETIC_CODE: Dict[str, str] = {}
_CODON_TABLE_SRC = (
    "TTT F TTC F TTA L TTG L CTT L CTC L CTA L CTG L "
    "ATT I ATC I ATA I ATG M GTT V GTC V GTA V GTG V "
    "TCT S TCC S TCA S TCG S CCT P CCC P CCA P CCG P "
    "ACT T ACC T ACA T ACG T GCT A GCC A GCA A GCG A "
    "TAT Y TAC Y TAA * TAG * CAT H CAC H CAA Q CAG Q "
    "AAT N AAC N AAA K AAG K GAT D GAC D GAA E GAG E "
    "TGT C TGC C TGA * TGG W CGT R CGC R CGA R CGG R "
    "AGT S AGC S AGA R AGG R GGT G GGC G GGA G GGG G"
)
_toks = _CODON_TABLE_SRC.split()
for _i in range(0, len(_toks), 2):
    STANDARD_GENETIC_CODE[_toks[_i]] = _toks[_i + 1]
del _toks, _i

#: The 61 sense (non-stop) codons in lexicographic order; this ordering is
#: the canonical codon-state indexing used throughout the library.
SENSE_CODONS: Tuple[str, ...] = tuple(
    sorted(c for c, aa in STANDARD_GENETIC_CODE.items() if aa != "*")
)


@dataclass(frozen=True)
class StateSpace:
    """A character alphabet for likelihood computation.

    Parameters
    ----------
    name:
        Human-readable identifier (``"nucleotide"``, ``"aminoacid"``,
        ``"codon"``).
    symbols:
        Canonical symbol for each state, index-aligned with the model's
        rate-matrix rows.
    ambiguity:
        Mapping from input token to the tuple of state indices it may
        represent.  Unambiguous tokens map to 1-tuples; a fully missing
        token maps to all states.
    """

    name: str
    symbols: Tuple[str, ...]
    ambiguity: Dict[str, Tuple[int, ...]] = field(repr=False)
    #: Token -> ``setTipStates`` code, for upper- and lower-case tokens.
    _codes: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        codes: Dict[str, int] = {}
        for token, states in self.ambiguity.items():
            code = states[0] if len(states) == 1 else len(self.symbols)
            codes[token] = codes[token.lower()] = code
        object.__setattr__(self, "_codes", codes)

    @property
    def n_states(self) -> int:
        return len(self.symbols)

    def index(self, token: str) -> int:
        """Return the state index of an *unambiguous* token."""
        states = self.states_for(token)
        if len(states) != 1:
            raise ValueError(f"token {token!r} is ambiguous in {self.name}")
        return states[0]

    def states_for(self, token: str) -> Tuple[int, ...]:
        """Return all state indices compatible with ``token``."""
        try:
            return self.ambiguity[token.upper()]
        except KeyError:
            raise ValueError(
                f"unknown {self.name} token {token!r}"
            ) from None

    def encode_states(self, sequence: Sequence[str]) -> np.ndarray:
        """Encode tokens as integer state codes for ``setTipStates``.

        Ambiguous/missing tokens are encoded as ``n_states`` which the
        kernels treat as "any state" (partial vector of ones), matching
        BEAGLE's convention of using the state count as the gap code.
        """
        code = self._codes.get
        out = np.array([code(tok, -1) for tok in sequence], dtype=np.int32)
        # Tokens outside the table (mixed case, unknown) take the slow
        # path, which raises for unknown ones.
        for i in np.flatnonzero(out < 0):
            states = self.states_for(sequence[i])
            out[i] = states[0] if len(states) == 1 else self.n_states
        return out

    def encode_partials(self, sequence: Sequence[str]) -> np.ndarray:
        """Encode tokens as 0/1 indicator partials for ``setTipPartials``.

        Returns an array of shape ``(len(sequence), n_states)``.  Unlike
        :meth:`encode_states` this representation preserves *partial*
        ambiguity (e.g. a purine ``R`` selects exactly {A, G}).
        """
        out = np.zeros((len(sequence), self.n_states))
        for i, tok in enumerate(sequence):
            out[i, list(self.states_for(tok))] = 1.0
        return out

    def decode(self, states: Sequence[int]) -> str:
        """Map state indices back to their canonical symbols."""
        return "".join(self.symbols[int(s)] for s in states)


def _nucleotide_space() -> StateSpace:
    order = "ACGT"
    amb = {
        tok: tuple(order.index(b) for b in bases)
        for tok, bases in _IUPAC_NUC.items()
    }
    return StateSpace("nucleotide", tuple(order), amb)


def _aminoacid_space() -> StateSpace:
    amb: Dict[str, Tuple[int, ...]] = {
        aa: (i,) for i, aa in enumerate(_AA_ORDER)
    }
    everything = tuple(range(len(_AA_ORDER)))
    amb["B"] = (_AA_ORDER.index("N"), _AA_ORDER.index("D"))
    amb["Z"] = (_AA_ORDER.index("Q"), _AA_ORDER.index("E"))
    amb["J"] = (_AA_ORDER.index("I"), _AA_ORDER.index("L"))
    amb["X"] = everything
    amb["-"] = everything
    amb["?"] = everything
    return StateSpace("aminoacid", tuple(_AA_ORDER), amb)


def _codon_space() -> StateSpace:
    amb: Dict[str, Tuple[int, ...]] = {
        codon: (i,) for i, codon in enumerate(SENSE_CODONS)
    }
    everything = tuple(range(len(SENSE_CODONS)))
    amb["---"] = everything
    amb["???"] = everything
    amb["NNN"] = everything
    return StateSpace("codon", SENSE_CODONS, amb)


NUCLEOTIDE: StateSpace = _nucleotide_space()
AMINO_ACID: StateSpace = _aminoacid_space()
CODON: StateSpace = _codon_space()

_BY_NAME = {
    "nucleotide": NUCLEOTIDE,
    "dna": NUCLEOTIDE,
    "aminoacid": AMINO_ACID,
    "protein": AMINO_ACID,
    "codon": CODON,
}


def get_state_space(name: str) -> StateSpace:
    """Look up a built-in state space by name (case-insensitive)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown state space {name!r}; choose from {sorted(_BY_NAME)}"
        ) from None


def codon_tokens(dna: str) -> List[str]:
    """Split a nucleotide string into codon triplets.

    Raises if the length is not a multiple of three or if a stop codon is
    present (stop codons are not part of the 61-state space).
    """
    if len(dna) % 3 != 0:
        raise ValueError(f"sequence length {len(dna)} is not a codon multiple")
    out = []
    for i in range(0, len(dna), 3):
        codon = dna[i : i + 3].upper().replace("U", "T")
        if codon in STANDARD_GENETIC_CODE and STANDARD_GENETIC_CODE[codon] == "*":
            raise ValueError(f"stop codon {codon} at position {i}")
        out.append(codon)
    return out
