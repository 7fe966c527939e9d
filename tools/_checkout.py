"""What the tools share: gainslift from a checkout, and the peak memory."""

import sys
from pathlib import Path


def import_gainslift(src_dir: str) -> Path:
    """Import gainslift from SRC_DIR, the `src` directory of a checkout,
    and return it resolved; exit with status 2 if it came from elsewhere
    or was not found."""
    src = Path(src_dir).resolve()
    sys.path.insert(0, str(src))
    try:
        import gainslift
    except ImportError:  # no gainslift in SRC_DIR, and none installed
        found = False
    else:
        found = Path(gainslift.__file__).resolve().is_relative_to(src)
    if not found:
        print(f"gainslift was not imported from {src}", file=sys.stderr)
        raise SystemExit(2)
    return src


def peak_mb() -> str:
    """Peak resident memory: `VmHWM` of /proc/self/status (Linux only)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            kb = next(line.split()[1] for line in status
                      if line.startswith("VmHWM:"))
        return f"{int(kb) / 1024:,.0f} MB"
    except (OSError, StopIteration):
        return "unknown"
