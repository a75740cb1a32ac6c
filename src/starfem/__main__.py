"""``python -m starfem``: the same command as the installed ``starfem``."""
import sys

from .expcli import main

sys.exit(main())
