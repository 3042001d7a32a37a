"""Post-hoc triage of failing tests: good (library bug) vs bad (broken test)."""
