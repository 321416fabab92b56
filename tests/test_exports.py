import ast
from pathlib import Path
from types import ModuleType

import charfield

# exported names that no library module reads, each with its reason to stay
UNREAD_EXPORTS = {
    # the brauer-census benchmark's entry point, kept for the rank-two
    # Brauer check that extends the rank-one counts
    "predicted_fixed_count_rank1",
    # the independent check of galois_stabilizer, read by its tests and by
    # the field-queries benchmark
    "sigma_image",
}


def _names_read(path: Path) -> set[str]:
    """Every name the module reads as a bare name or an attribute; an import
    alone reads nothing."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_export_is_read_in_the_library():
    # an export that only the tests call has no place in the library: it
    # gets an oracle and a caller, or it goes
    package = Path(charfield.__file__).parent
    read = set().union(*(_names_read(path) for path in package.glob("*.py")
                         if path.name != "__init__.py"))
    exported = {name for name in charfield.__all__
                if not isinstance(getattr(charfield, name), ModuleType)}
    assert exported - read == UNREAD_EXPORTS
