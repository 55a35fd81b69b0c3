// peak_rss — runs a command and records the peak resident set of that
// command alone.
//
//   peak_rss OUT_FILE -- COMMAND [ARGS...]
//
// Linux carries a process's RSS high-water mark across exec, and a child
// forked (or vforked) from a large parent starts with the parent's pages
// counted.  So a benchmark written in Python that reads ru_maxrss of its
// own children would report its own footprint whenever it exceeds the
// child's.  This small launcher forks the command from a small process,
// waits for it, and writes the child's ru_maxrss (KiB) to OUT_FILE.  It
// exits with the command's status (128 + signal when it was killed).
// SIGTERM and SIGINT are ignored here, not in the command: signalling the
// process group stops the command, and this launcher still reaps it.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

int main(int argc, char** argv) {
  if (argc < 4 || std::strcmp(argv[2], "--") != 0) {
    std::fprintf(stderr, "usage: peak_rss OUT_FILE -- COMMAND [ARGS...]\n");
    return 2;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("peak_rss: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[3], argv + 3);
    std::perror("peak_rss: exec");
    _exit(127);
  }
  std::signal(SIGTERM, SIG_IGN);
  std::signal(SIGINT, SIG_IGN);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("peak_rss: wait4");
      return 2;
    }
  }
  if (std::FILE* out = std::fopen(argv[1], "w")) {
    std::fprintf(out, "%ld\n", usage.ru_maxrss);
    std::fclose(out);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}
