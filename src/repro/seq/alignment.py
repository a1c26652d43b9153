"""Multiple sequence alignments keyed to a state space."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.statespace import StateSpace, codon_tokens, get_state_space


class Alignment:
    """An aligned set of sequences over a common :class:`StateSpace`.

    Sequences are stored as lists of *tokens* (single characters for
    nucleotide/amino-acid data, triplets for codons) so that one container
    serves all three state spaces.
    """

    def __init__(
        self,
        names: Sequence[str],
        token_rows: Sequence[Sequence[str]],
        state_space: StateSpace,
    ) -> None:
        if len(names) != len(token_rows):
            raise ValueError(
                f"{len(names)} names but {len(token_rows)} sequences"
            )
        if len(names) == 0:
            raise ValueError("alignment must contain at least one sequence")
        if len(set(names)) != len(names):
            raise ValueError("duplicate sequence names")
        lengths = {len(row) for row in token_rows}
        if len(lengths) != 1:
            raise ValueError(f"ragged alignment: lengths {sorted(lengths)}")
        self.names: List[str] = list(names)
        self.rows: List[List[str]] = [list(r) for r in token_rows]
        self.state_space = state_space
        # Validate every token up front so errors carry context.
        for name, row in zip(self.names, self.rows):
            for pos, tok in enumerate(row):
                try:
                    state_space.states_for(tok)
                except ValueError as exc:
                    raise ValueError(f"{name} site {pos}: {exc}") from None

    @classmethod
    def from_strings(
        cls,
        sequences: Dict[str, str],
        state_space: StateSpace | str = "nucleotide",
    ) -> "Alignment":
        """Build from name->string mapping, tokenising per state space."""
        if isinstance(state_space, str):
            state_space = get_state_space(state_space)
        names = list(sequences)
        if state_space.name == "codon":
            rows = [codon_tokens(sequences[n]) for n in names]
        else:
            rows = [list(sequences[n].upper()) for n in names]
        return cls(names, rows, state_space)

    @property
    def n_sequences(self) -> int:
        return len(self.names)

    @property
    def n_sites(self) -> int:
        return len(self.rows[0])

    @property
    def n_states(self) -> int:
        return self.state_space.n_states

    def sequence(self, name: str) -> List[str]:
        try:
            return self.rows[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no sequence named {name!r}") from None

    def column(self, site: int) -> Tuple[str, ...]:
        return tuple(row[site] for row in self.rows)

    def columns(self) -> Iterator[Tuple[str, ...]]:
        for site in range(self.n_sites):
            yield self.column(site)

    def encode_states(self) -> np.ndarray:
        """Integer state codes, shape ``(n_sequences, n_sites)``.

        Every ambiguous token, fully or partially (``R`` = A or G), becomes
        the gap code ``n_states``, which the kernels treat as "any state";
        use :meth:`encode_partials` when partial ambiguity must be
        preserved.
        """
        return np.stack(
            [self.state_space.encode_states(row) for row in self.rows]
        )

    def encode_partials(self) -> np.ndarray:
        """Indicator partials, shape ``(n_sequences, n_sites, n_states)``."""
        return np.stack(
            [self.state_space.encode_partials(row) for row in self.rows]
        )

    def subset(self, names: Sequence[str]) -> "Alignment":
        """Row subset preserving the given order."""
        rows = [self.sequence(n) for n in names]
        return Alignment(list(names), rows, self.state_space)

    def sites(self, site_indices: Sequence[int]) -> "Alignment":
        """Column subset (e.g. one partition of a partitioned analysis)."""
        rows = [[row[i] for i in site_indices] for row in self.rows]
        return Alignment(self.names, rows, self.state_space)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Alignment {self.n_sequences} x {self.n_sites} "
            f"{self.state_space.name}>"
        )
