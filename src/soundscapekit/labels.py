"""Canonical class names and label-combination helpers shared across the toolkit."""

ANTHROPOPHONY = "anthropophony"
BIOPHONY = "biophony"
GEOPHONY = "geophony"
SILENCE = "silence"

#: The three target classes, in the fixed column order used by every CSV schema.
CLASSES = (ANTHROPOPHONY, BIOPHONY, GEOPHONY)

#: Single-letter codes used in combination strings ("A", "BG", "ABG", "S").
LETTER = {ANTHROPOPHONY: "A", BIOPHONY: "B", GEOPHONY: "G"}
CLASS_FOR_LETTER = {v: k for k, v in LETTER.items()}

SILENCE_COMBO = "S"

#: All valid combination strings, in manifest/report order.
COMBOS = ("A", "B", "G", "S", "AB", "AG", "BG", "ABG")


def combo_string(classes) -> str:
    """Encode a set of class names as a combination string ("S" for the empty set)."""
    letters = "".join(LETTER[c] for c in CLASSES if c in classes)
    return letters if letters else SILENCE_COMBO


def classes_for_combo(combo: str) -> frozenset:
    """Decode one of COMBOS into a (possibly empty) set of class names."""
    if combo not in COMBOS:
        raise ValueError(f"unknown class combination {combo!r}")
    return frozenset(CLASS_FOR_LETTER[ch] for ch in combo if ch != SILENCE_COMBO)
