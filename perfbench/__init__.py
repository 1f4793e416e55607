"""Oracle-checked CDC replay benchmark for tiflow_ray (see README.md)."""
