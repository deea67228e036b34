"""Exact-arithmetic toolkit for the orbit geometry of binary cubics under the
twisted GL2 action, the combinatorics of the six simple equivariant perverse
sheaves living on that space, and the packet and stable-character data they
determine.

Every value in the library is an exact rational; consistency between the
encoded tables and everything re-derivable from them is machine-checked by
`g2cubics.verify.run_checks` (also exposed as `g2cubics verify` on the
command line).

The package exports nothing itself: each name is imported from its module
(`from g2cubics.cubics import classify`), so importing one module loads only
what that module needs.
"""
