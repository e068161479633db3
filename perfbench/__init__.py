"""Closed-loop benchmark of the speigen CLI; see README.md in this directory."""
