"""Long-tail classification toolkit with open-set neighbor-category
expansion: balanced and neighbor-silencing losses, auxiliary curation and
sampling, classifier masking, and a synthetic hierarchy benchmark.

Import the submodules (``tailext.core``, ``tailext.model``, ...) for the
library; importing the package itself loads none of them, and so no numpy.
"""

__version__ = "0.1.0"
