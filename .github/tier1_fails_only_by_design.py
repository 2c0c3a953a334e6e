"""Exit 0 when a tier-1 JUnit report fails only acceptance criterion 9.

Criterion 9 fails by design (see ROADMAP.md).  Any other failure or error,
or criterion 9 passing, exits 1.  Usage: python tier1_fails_only_by_design.py
REPORT.xml
"""

import sys
import xml.etree.ElementTree as ET

failed = {
    case.get("name")
    for case in ET.parse(sys.argv[1]).iter("testcase")
    if case.find("failure") is not None or case.find("error") is not None
}
print("failed:", sorted(failed))
sys.exit(failed != {"test_criterion_9_structure_size_shape"})
