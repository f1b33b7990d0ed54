"""Serving benchmark for the repro sketch stack (see NOTES.md)."""
