"""State spaces: alphabets, ambiguity codes, encodings."""

import numpy as np
import pytest

from repro.model.statespace import (
    AMINO_ACID,
    CODON,
    NUCLEOTIDE,
    SENSE_CODONS,
    STANDARD_GENETIC_CODE,
    codon_tokens,
    get_state_space,
)


class TestNucleotide:
    def test_four_states(self):
        assert NUCLEOTIDE.n_states == 4
        assert NUCLEOTIDE.symbols == ("A", "C", "G", "T")

    def test_index_of_definite_bases(self):
        assert [NUCLEOTIDE.index(b) for b in "ACGT"] == [0, 1, 2, 3]

    def test_uracil_maps_to_thymine(self):
        assert NUCLEOTIDE.index("U") == NUCLEOTIDE.index("T")

    def test_lowercase_accepted(self):
        assert NUCLEOTIDE.index("a") == 0

    def test_purine_ambiguity(self):
        assert NUCLEOTIDE.states_for("R") == (0, 2)  # A, G

    def test_pyrimidine_ambiguity(self):
        assert NUCLEOTIDE.states_for("Y") == (1, 3)  # C, T

    def test_gap_is_fully_ambiguous(self):
        assert NUCLEOTIDE.states_for("-") == (0, 1, 2, 3)
        assert NUCLEOTIDE.states_for("N") == (0, 1, 2, 3)

    def test_index_rejects_ambiguous(self):
        with pytest.raises(ValueError, match="ambiguous"):
            NUCLEOTIDE.index("R")

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            NUCLEOTIDE.states_for("!")

    def test_encode_states_gap_code(self):
        codes = NUCLEOTIDE.encode_states(list("ACGT-N"))
        assert list(codes[:4]) == [0, 1, 2, 3]
        # fully ambiguous tokens use n_states as the gap code
        assert codes[4] == 4 and codes[5] == 4

    def test_encode_states_partial_ambiguity_widens_to_gap(self):
        # Compact state codes cannot express "A or G"; the encoder widens
        # to the fully-missing code (use encode_partials to preserve R).
        codes = NUCLEOTIDE.encode_states(["R"])
        assert codes[0] == NUCLEOTIDE.n_states

    def test_encode_partials_shape_and_values(self):
        p = NUCLEOTIDE.encode_partials(list("AR-"))
        assert p.shape == (3, 4)
        assert list(p[0]) == [1, 0, 0, 0]
        assert list(p[1]) == [1, 0, 1, 0]  # R = A or G
        assert list(p[2]) == [1, 1, 1, 1]

    def test_decode_round_trip(self):
        seq = "ACGTACGT"
        codes = NUCLEOTIDE.encode_states(list(seq))
        assert NUCLEOTIDE.decode(codes) == seq


class TestAminoAcid:
    def test_twenty_states(self):
        assert AMINO_ACID.n_states == 20

    def test_all_canonical_residues_unambiguous(self):
        for aa in AMINO_ACID.symbols:
            assert AMINO_ACID.states_for(aa) == (AMINO_ACID.index(aa),)

    def test_b_is_asx(self):
        states = set(AMINO_ACID.states_for("B"))
        assert states == {AMINO_ACID.index("N"), AMINO_ACID.index("D")}

    def test_z_is_glx(self):
        states = set(AMINO_ACID.states_for("Z"))
        assert states == {AMINO_ACID.index("Q"), AMINO_ACID.index("E")}

    def test_x_is_fully_ambiguous(self):
        assert len(AMINO_ACID.states_for("X")) == 20


class TestCodon:
    def test_sixty_one_states(self):
        assert CODON.n_states == 61
        assert len(SENSE_CODONS) == 61

    def test_no_stop_codons_in_state_space(self):
        for codon in SENSE_CODONS:
            assert STANDARD_GENETIC_CODE[codon] != "*"

    def test_stop_codons_in_genetic_code(self):
        stops = {c for c, aa in STANDARD_GENETIC_CODE.items() if aa == "*"}
        assert stops == {"TAA", "TAG", "TGA"}

    def test_genetic_code_covers_all_64(self):
        assert len(STANDARD_GENETIC_CODE) == 64

    def test_codons_sorted(self):
        assert list(SENSE_CODONS) == sorted(SENSE_CODONS)

    def test_met_and_trp_unique(self):
        mets = [c for c, aa in STANDARD_GENETIC_CODE.items() if aa == "M"]
        trps = [c for c, aa in STANDARD_GENETIC_CODE.items() if aa == "W"]
        assert mets == ["ATG"] and trps == ["TGG"]

    def test_codon_gap(self):
        assert len(CODON.states_for("---")) == 61

    def test_codon_tokens_splits_triplets(self):
        assert codon_tokens("ATGGCC") == ["ATG", "GCC"]

    def test_codon_tokens_rejects_bad_length(self):
        with pytest.raises(ValueError, match="multiple"):
            codon_tokens("ATGGC")

    def test_codon_tokens_rejects_stop(self):
        with pytest.raises(ValueError, match="stop codon"):
            codon_tokens("ATGTAA")

    def test_codon_tokens_rna_input(self):
        assert codon_tokens("AUGGCC") == ["ATG", "GCC"]


class TestLookup:
    @pytest.mark.parametrize(
        "name,expected",
        [("nucleotide", 4), ("dna", 4), ("protein", 20), ("codon", 61)],
    )
    def test_get_state_space(self, name, expected):
        assert get_state_space(name).n_states == expected

    def test_case_insensitive(self):
        assert get_state_space("DNA").n_states == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown state space"):
            get_state_space("rna-secondary-structure")


def _encode_one_by_one(space, tokens):
    """The per-token definition the table-driven encoder must match."""
    out = []
    for tok in tokens:
        states = space.states_for(tok)
        out.append(states[0] if len(states) == 1 else space.n_states)
    return np.array(out, dtype=np.int32)


class TestEncodeStatesTable:
    @pytest.mark.parametrize("space", [NUCLEOTIDE, AMINO_ACID, CODON],
                             ids=lambda s: s.name)
    def test_matches_per_token_definition(self, space):
        tokens = sorted(space.ambiguity)
        # Lower-case and mixed-case spellings of every token, shuffled.
        tokens += [t.lower() for t in tokens]
        tokens += [t[0].lower() + t[1:] for t in tokens if len(t) > 1]
        order = np.random.default_rng(0).permutation(len(tokens))
        tokens = [tokens[i] for i in order]
        codes = space.encode_states(tokens)
        assert codes.dtype == np.int32
        assert np.array_equal(codes, _encode_one_by_one(space, tokens))

    @pytest.mark.parametrize("space,bad", [
        (NUCLEOTIDE, "!"), (AMINO_ACID, "O"), (CODON, "TAA"),
    ], ids=["nucleotide", "aminoacid", "codon"])
    def test_unknown_token_same_error(self, space, bad):
        with pytest.raises(ValueError) as direct:
            space.states_for(bad)
        with pytest.raises(ValueError) as encoded:
            space.encode_states(["A" * len(bad), bad])
        assert str(encoded.value) == str(direct.value)

    def test_empty_sequence(self):
        assert NUCLEOTIDE.encode_states([]).shape == (0,)
